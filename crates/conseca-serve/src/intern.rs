//! Client-side policy-key interning (wire v9).
//!
//! A client names each policy key it checks by a small slot: the first
//! check on a key binds the slot with a `BindKey` (which carries the
//! tenant, task and whole context once), and every later check carries
//! only the slot. A [`KeyInterner`] remembers which key each slot names,
//! so a repeat check costs one hash and one equality compare of the key
//! parts — no context clone, no encode, no fingerprint.
//!
//! A slot is only a name: the server keeps trajectory sessions by the
//! policy key itself, so when the table fills it is cleared and slots
//! are rebound, and nothing a slot named before is lost.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use conseca_core::TrustedContext;
use conseca_engine::EngineKey;

use crate::wire::{bind_key_frame, Frame, WireError, MAX_KEY_SLOTS};

/// A policy key as a request names it: tenant, task and context.
pub(crate) type KeyParts<'a> = (&'a str, &'a str, &'a TrustedContext);

/// The hash the interner files key parts under. Word-at-a-time, so
/// a few kilobytes of context hash in well under a microsecond; it is
/// not collision-resistant, which is sound here because the interner
/// compares the parts on every hash match and its keys are the client's
/// own.
fn parts_hash(tenant: &str, task: &str, context: &TrustedContext) -> u64 {
    let mut hasher = WordHasher(0);
    (tenant, task, context).hash(&mut hasher);
    hasher.finish()
}

struct WordHasher(u64);

impl WordHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("eight-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(last));
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One interned key: its parts (compared on every hash match), its
/// engine key, and whether its slot is bound on the connection.
struct Interned {
    tenant: String,
    task: String,
    context: TrustedContext,
    key: EngineKey,
    bound: bool,
}

/// Policy keys by slot, and slots by the hash of their key parts.
#[derive(Default)]
pub(crate) struct KeyInterner {
    /// Indexed by slot; never longer than [`MAX_KEY_SLOTS`].
    entries: Vec<Interned>,
    by_hash: HashMap<u64, u32>,
}

impl KeyInterner {
    /// The slot for (tenant, task, context), interning the key if it is
    /// new, and whether that slot still has to be bound on the wire.
    /// A new key takes the next free slot; when every slot is taken the
    /// table is cleared first. A key whose hash matches another's
    /// (different parts) takes over that key's slot.
    pub(crate) fn slot(
        &mut self,
        tenant: &str,
        task: &str,
        context: &TrustedContext,
    ) -> (u32, bool) {
        let hash = parts_hash(tenant, task, context);
        if let Some(&slot) = self.by_hash.get(&hash) {
            let entry = &mut self.entries[slot as usize];
            if entry.tenant == tenant && entry.task == task && entry.context == *context {
                return (slot, !entry.bound);
            }
            *entry = Interned::new(tenant, task, context);
            return (slot, true);
        }
        if self.entries.len() == MAX_KEY_SLOTS as usize {
            self.entries.clear();
            self.by_hash.clear();
        }
        let slot = self.entries.len() as u32;
        self.entries.push(Interned::new(tenant, task, context));
        self.by_hash.insert(hash, slot);
        (slot, true)
    }

    /// The engine key for (tenant, task, context), interned without
    /// binding a slot: what a caller that keys local state needs.
    pub(crate) fn key(&mut self, tenant: &str, task: &str, context: &TrustedContext) -> EngineKey {
        let (slot, _) = self.slot(tenant, task, context);
        self.entries[slot as usize].key
    }

    /// Records that `slot`'s bind is on the wire (`true`), or that the
    /// server refused it and the next check must bind again (`false`).
    pub(crate) fn set_bound(&mut self, slot: u32, bound: bool) {
        if let Some(entry) = self.entries.get_mut(slot as usize) {
            entry.bound = bound;
        }
    }

    /// The slot a request under `key` names (0 when it names none), and
    /// while that slot is unbound the `BindKey` to send ahead of the
    /// request, encoded under `cap`.
    pub(crate) fn bind(
        &mut self,
        key: Option<KeyParts<'_>>,
        cap: u32,
    ) -> Result<(u32, Option<Frame>), WireError> {
        let Some((tenant, task, context)) = key else { return Ok((0, None)) };
        let (slot, unbound) = self.slot(tenant, task, context);
        let bind = unbound.then(|| bind_key_frame(slot, tenant, task, context, cap)).transpose()?;
        Ok((slot, bind))
    }
}

impl Interned {
    fn new(tenant: &str, task: &str, context: &TrustedContext) -> Self {
        Interned {
            tenant: tenant.to_owned(),
            task: task.to_owned(),
            context: context.clone(),
            key: EngineKey::new(tenant, task, context),
            bound: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(user: &str) -> TrustedContext {
        let mut ctx = TrustedContext::for_user(user);
        ctx.fs_tree = format!("{user}/\n  Documents/\n");
        ctx
    }

    #[test]
    fn a_key_keeps_its_slot_and_binds_once() {
        let mut keys = KeyInterner::default();
        assert_eq!(keys.slot("acme", "t", &ctx("alice")), (0, true));
        keys.set_bound(0, true);
        assert_eq!(keys.slot("acme", "t", &ctx("alice")), (0, false));
        assert_eq!(keys.slot("acme", "u", &ctx("alice")), (1, true));
        assert_eq!(keys.slot("globex", "t", &ctx("alice")), (2, true));
        assert_eq!(keys.slot("acme", "t", &ctx("bob")), (3, true));
        keys.set_bound(0, false);
        assert_eq!(keys.slot("acme", "t", &ctx("alice")), (0, true), "a refused bind rebinds");
        assert_eq!(keys.key("acme", "t", &ctx("bob")), EngineKey::new("acme", "t", &ctx("bob")));
    }

    #[test]
    fn a_full_table_is_cleared_and_slots_are_reused() {
        let mut keys = KeyInterner::default();
        for i in 0..MAX_KEY_SLOTS {
            let (slot, bind) = keys.slot("acme", &format!("task {i}"), &ctx("alice"));
            assert_eq!((slot, bind), (i, true));
            keys.set_bound(slot, true);
        }
        assert_eq!(keys.slot("acme", "one more", &ctx("alice")), (0, true));
        assert_eq!(keys.slot("acme", "task 0", &ctx("alice")), (1, true), "cleared keys rebind");
        assert!(keys.entries.len() <= MAX_KEY_SLOTS as usize);
    }

    #[test]
    fn the_parts_hash_separates_field_boundaries() {
        assert_ne!(parts_hash("ab", "c", &ctx("a")), parts_hash("a", "bc", &ctx("a")));
        assert_eq!(parts_hash("acme", "t", &ctx("a")), parts_hash("acme", "t", &ctx("a")));
    }
}
