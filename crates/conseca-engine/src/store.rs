//! The sharded, thread-safe compiled-policy store.
//!
//! The paper's §7 caching suggestion, rebuilt for concurrent serving: the
//! single-threaded [`PolicyCache`] becomes N
//! independent shards, each a `parking_lot::RwLock` around its own LRU
//! map, so lookups from different tenants contend only when they hash to
//! the same shard. Entries are `Arc<CompiledPolicy>` **snapshots**:
//!
//! - a hit clones the `Arc` (a refcount bump) and drops the shard lock
//!   before the caller evaluates anything, so policy checks never run
//!   under a lock;
//! - a writer replacing or evicting a policy never invalidates readers —
//!   threads holding the old snapshot keep enforcing the policy they
//!   looked up, exactly the semantics the cache key guarantees (the key
//!   fingerprints task *and* context, so a stale snapshot can only ever
//!   be the same policy, §7);
//! - recency is tracked with a per-entry atomic touched under the *read*
//!   lock, so hits never take the write lock.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use conseca_core::{fnv1a, CacheKey, PolicyCache, TrustedContext};
use parking_lot::RwLock;

use crate::compile::CompiledPolicy;

/// Store key: tenant fingerprint plus the core cache's (task, context)
/// fingerprint pair. Two tenants with identical tasks and contexts get
/// distinct entries — policies are per-tenant artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EngineKey {
    tenant_fp: u64,
    policy_key: CacheKey,
}

impl EngineKey {
    /// Key for `tenant`'s policy for (`task`, `context`).
    pub fn new(tenant: &str, task: &str, context: &TrustedContext) -> Self {
        EngineKey {
            tenant_fp: fnv1a(tenant.as_bytes()),
            policy_key: PolicyCache::key(task, context),
        }
    }

    /// Key from a tenant name and a precomputed core cache key, for
    /// callers that index by something other than raw task text (e.g.
    /// screening batches keyed by policy fingerprint).
    pub fn from_cache_key(tenant: &str, policy_key: CacheKey) -> Self {
        EngineKey { tenant_fp: fnv1a(tenant.as_bytes()), policy_key }
    }

    /// The tenant fingerprint component (what [`PolicyStore::flush_tenant`]
    /// matches on).
    pub(crate) fn tenant_fp(&self) -> u64 {
        self.tenant_fp
    }

    /// The (task fingerprint, context fingerprint) component — what a
    /// snapshot records so a restored policy lands under exactly the key
    /// it was exported from.
    pub fn policy_key(&self) -> CacheKey {
        self.policy_key
    }

    fn shard_index(&self, shards: usize) -> usize {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        self.hash(&mut hasher);
        (hasher.finish() % shards as u64) as usize
    }
}

/// Sizing of a [`PolicyStore`].
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Number of independent shards (≥ 1). More shards, less contention.
    pub shards: usize,
    /// Total policy capacity across all shards (≥ `shards`).
    pub capacity: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig { shards: 8, capacity: 1024 }
    }
}

struct Slot {
    policy: Arc<CompiledPolicy>,
    /// Recency stamp, written under the read lock on hits.
    last_used: AtomicU64,
    /// Store-wide install generation assigned when this snapshot was
    /// (re)installed. Revocation is compare-and-remove on this counter:
    /// a revoker that observed generation G only removes the slot if it
    /// still holds G, so a racing re-install (which bumps the
    /// generation) can never be clobbered by a stale revocation — and a
    /// racing check can never be handed a snapshot the store has already
    /// agreed to revoke.
    generation: u64,
    /// The snapshot's source-policy fingerprint, cached at insert so
    /// fingerprint sweeps never walk policy contents under the lock.
    source_fp: u64,
}

struct Shard {
    slots: RwLock<HashMap<EngineKey, Slot>>,
    /// Monotonic use-counter implementing per-shard LRU ordering.
    tick: AtomicU64,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Shard {
    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }
}

/// Removes the least-recently-used slot. Caller holds the write lock.
fn evict_lru(slots: &mut HashMap<EngineKey, Slot>) {
    let victim = slots
        .iter()
        .min_by_key(|(_, slot)| slot.last_used.load(Ordering::Relaxed))
        .map(|(k, _)| *k);
    if let Some(victim) = victim {
        slots.remove(&victim);
    }
}

/// One live slot as seen by a snapshot export: its cache key, the
/// source-policy fingerprint and install generation it was stamped
/// with, and the shared compiled snapshot (whose retained source
/// [`Policy`](conseca_core::Policy) is what actually gets serialised).
pub struct ExportedSlot {
    /// The (task fingerprint, context fingerprint) store-key component.
    pub key: CacheKey,
    /// Source-policy fingerprint the slot was stamped with.
    pub source_fp: u64,
    /// Install generation the slot was stamped with.
    pub generation: u64,
    /// The compiled snapshot occupying the slot.
    pub policy: Arc<CompiledPolicy>,
}

/// A sharded LRU map from [`EngineKey`] to `Arc<CompiledPolicy>`.
pub struct PolicyStore {
    shards: Box<[Shard]>,
    /// Monotonic install counter; every insert/replace stamps its slot
    /// with the next value (the revocation token, see [`Slot`]).
    installs: AtomicU64,
}

impl PolicyStore {
    /// Creates a store with `config.shards` shards splitting
    /// `config.capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or `capacity < shards` — either is a
    /// configuration bug (a shard with zero capacity could never hold the
    /// policy it is asked to cache).
    pub fn new(config: StoreConfig) -> Self {
        assert!(config.shards > 0, "store must have at least one shard");
        assert!(
            config.capacity >= config.shards,
            "store capacity must be at least one entry per shard"
        );
        let per_shard = config.capacity.div_ceil(config.shards);
        let shards = (0..config.shards)
            .map(|_| Shard {
                slots: RwLock::new(HashMap::new()),
                tick: AtomicU64::new(0),
                capacity: per_shard,
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
            })
            .collect();
        PolicyStore { shards, installs: AtomicU64::new(0) }
    }

    fn next_generation(&self) -> u64 {
        self.installs.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn shard(&self, key: &EngineKey) -> &Shard {
        &self.shards[key.shard_index(self.shards.len())]
    }

    /// Looks up a compiled policy. A hit hands back a shared snapshot and
    /// refreshes recency without ever taking the write lock.
    pub fn get(&self, key: &EngineKey) -> Option<Arc<CompiledPolicy>> {
        self.get_with_generation(key).map(|(policy, _)| policy)
    }

    /// [`get`](Self::get), also reporting the install generation the
    /// snapshot was stamped with — the token
    /// [`revoke_if_generation`](Self::revoke_if_generation) matches on.
    pub fn get_with_generation(&self, key: &EngineKey) -> Option<(Arc<CompiledPolicy>, u64)> {
        let shard = self.shard(key);
        let slots = shard.slots.read();
        match slots.get(key) {
            Some(slot) => {
                slot.last_used.store(shard.next_tick(), Ordering::Relaxed);
                shard.hits.fetch_add(1, Ordering::Relaxed);
                Some((Arc::clone(&slot.policy), slot.generation))
            }
            None => {
                shard.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts (or replaces) a policy, evicting the shard's
    /// least-recently-used entry if the shard is full. Returns the
    /// install generation stamped on the new slot.
    pub fn insert(&self, key: EngineKey, policy: Arc<CompiledPolicy>) -> u64 {
        self.replace(key, policy).1
    }

    /// [`insert`](Self::insert), also reporting the source fingerprint of
    /// the snapshot that was replaced (if the key was live) — what a
    /// reload audits as the old policy.
    pub fn replace(&self, key: EngineKey, policy: Arc<CompiledPolicy>) -> (Option<u64>, u64) {
        let generation = self.next_generation();
        let source_fp = policy.fingerprint();
        let shard = self.shard(&key);
        let mut slots = shard.slots.write();
        if slots.len() >= shard.capacity && !slots.contains_key(&key) {
            evict_lru(&mut slots);
        }
        let old = slots.insert(
            key,
            Slot { policy, last_used: AtomicU64::new(shard.next_tick()), generation, source_fp },
        );
        (old.map(|slot| slot.source_fp), generation)
    }

    /// Returns the cached policy for `key`, or compiles-and-caches via
    /// `make` on a miss. The closure runs outside any lock (policy
    /// compilation must not block the shard); if another thread installs
    /// the same key concurrently, the first-installed snapshot wins so
    /// every caller converges on one `Arc`.
    ///
    /// The boolean is `true` when the policy was served from cache.
    pub fn get_or_insert_with(
        &self,
        key: EngineKey,
        make: impl FnOnce() -> Arc<CompiledPolicy>,
    ) -> (Arc<CompiledPolicy>, bool) {
        if let Some(policy) = self.get(&key) {
            return (policy, true);
        }
        let policy = make();
        let generation = self.next_generation();
        let source_fp = policy.fingerprint();
        let shard = self.shard(&key);
        let mut slots = shard.slots.write();
        if let Some(existing) = slots.get(&key) {
            return (Arc::clone(&existing.policy), false);
        }
        if slots.len() >= shard.capacity {
            evict_lru(&mut slots);
        }
        slots.insert(
            key,
            Slot {
                policy: Arc::clone(&policy),
                last_used: AtomicU64::new(shard.next_tick()),
                generation,
                source_fp,
            },
        );
        (policy, false)
    }

    /// Removes every entry belonging to `tenant` (the per-tenant
    /// invalidation the hot-reload roadmap asks for), returning how many
    /// were dropped. In-flight holders of flushed snapshots are
    /// unaffected — they keep the `Arc` they already resolved; only
    /// *future* lookups miss and recompile.
    pub fn flush_tenant(&self, tenant: &str) -> usize {
        let tenant_fp = fnv1a(tenant.as_bytes());
        let mut removed = 0;
        for shard in self.shards.iter() {
            let mut slots = shard.slots.write();
            let before = slots.len();
            slots.retain(|key, _| key.tenant_fp() != tenant_fp);
            removed += before - slots.len();
        }
        removed
    }

    /// Removes every snapshot `tenant` has installed whose source policy
    /// carries `fingerprint` — fingerprint-based revocation, the sweep a
    /// reload runs when a policy is discovered stale. Each shard is swept
    /// in one pass under its write lock, so once this returns, no future
    /// lookup anywhere in the store can resolve the revoked snapshot
    /// (in-flight holders keep their `Arc`, exactly as with
    /// [`flush_tenant`](Self::flush_tenant)). Returns how many entries
    /// were dropped.
    pub fn revoke_fingerprint(&self, tenant: &str, fingerprint: u64) -> usize {
        let tenant_fp = fnv1a(tenant.as_bytes());
        let mut removed = 0;
        for shard in self.shards.iter() {
            let mut slots = shard.slots.write();
            let before = slots.len();
            slots.retain(|key, slot| key.tenant_fp() != tenant_fp || slot.source_fp != fingerprint);
            removed += before - slots.len();
        }
        removed
    }

    /// Everything `tenant` currently has installed, read shard-by-shard
    /// under the read locks — the raw material of a snapshot export.
    /// Each shard is read in one pass, so within a shard the view is a
    /// point-in-time cut; a concurrent install/reload lands either
    /// wholly before or wholly after a shard's cut (slots are replaced
    /// atomically under the write lock), so no exported entry can be a
    /// torn mix of two installs. Entries come back sorted by cache key
    /// so exports are deterministic for identical store states.
    pub fn export_entries(&self, tenant: &str) -> Vec<ExportedSlot> {
        let tenant_fp = fnv1a(tenant.as_bytes());
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            let slots = shard.slots.read();
            for (key, slot) in slots.iter() {
                if key.tenant_fp() == tenant_fp {
                    out.push(ExportedSlot {
                        key: key.policy_key(),
                        source_fp: slot.source_fp,
                        generation: slot.generation,
                        policy: Arc::clone(&slot.policy),
                    });
                }
            }
        }
        out.sort_by_key(|slot| (slot.key.task_fp(), slot.key.context_fp()));
        out
    }

    /// Whether the key currently holds a snapshot — a lock-cheap peek
    /// that touches neither hit/miss accounting nor LRU recency.
    /// Advisory only (the answer can be stale by the time the caller
    /// acts); [`install_absent`](Self::install_absent) remains the
    /// authoritative compare-and-install. Snapshot imports use it to
    /// skip compiling entries whose key is plainly already live.
    pub fn is_live(&self, key: &EngineKey) -> bool {
        self.shard(key).slots.read().contains_key(key)
    }

    /// Installs `policy` only if the key is currently empty, returning
    /// the new slot's generation — the compare-and-install half of
    /// [`revoke_if_generation`](Self::revoke_if_generation)'s semantics,
    /// used by snapshot restores: a concurrent (hence newer) install
    /// always wins over a stale restore, which observes `None` and
    /// leaves the live snapshot alone.
    pub fn install_absent(&self, key: EngineKey, policy: Arc<CompiledPolicy>) -> Option<u64> {
        let generation = self.next_generation();
        let source_fp = policy.fingerprint();
        let shard = self.shard(&key);
        let mut slots = shard.slots.write();
        if slots.contains_key(&key) {
            return None;
        }
        if slots.len() >= shard.capacity {
            evict_lru(&mut slots);
        }
        slots.insert(
            key,
            Slot { policy, last_used: AtomicU64::new(shard.next_tick()), generation, source_fp },
        );
        Some(generation)
    }

    /// Compare-and-remove: drops the slot for `key` only if it still
    /// carries `generation` (as resolved by
    /// [`get_with_generation`](Self::get_with_generation)). Returns
    /// whether anything was removed. A racing re-install bumps the slot's
    /// generation, so a stale revocation observes the mismatch and leaves
    /// the fresh snapshot alone.
    ///
    /// This is a *targeted* revocation primitive for callers that
    /// resolved one specific snapshot and later decide to retire exactly
    /// that install. The shipped reload paths do not need it — the
    /// [`ReloadCoordinator`](crate::reload::ReloadCoordinator) claims
    /// keys at its tracking layer and sweeps by fingerprint
    /// ([`revoke_fingerprint`](Self::revoke_fingerprint), whose
    /// single-pass-per-shard write-lock sweep is what actually provides
    /// the no-stale-lookup guarantee) — but external resolvers holding a
    /// (snapshot, generation) pair get a clobber-safe retire without a
    /// fingerprint's blast radius.
    pub fn revoke_if_generation(&self, key: &EngineKey, generation: u64) -> bool {
        let shard = self.shard(key);
        let mut slots = shard.slots.write();
        match slots.get(key) {
            Some(slot) if slot.generation == generation => {
                slots.remove(key);
                true
            }
            _ => false,
        }
    }

    /// Number of cached policies across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.slots.read().len()).sum()
    }

    /// Reports whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total lookup hits across shards.
    pub fn hits(&self) -> u64 {
        self.shards.iter().map(|s| s.hits.load(Ordering::Relaxed)).sum()
    }

    /// Total lookup misses across shards.
    pub fn misses(&self) -> u64 {
        self.shards.iter().map(|s| s.misses.load(Ordering::Relaxed)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conseca_core::Policy;

    fn compiled(task: &str) -> Arc<CompiledPolicy> {
        Arc::new(CompiledPolicy::compile(&Policy::new(task)))
    }

    fn key(tenant: &str, task: &str) -> EngineKey {
        EngineKey::new(tenant, task, &TrustedContext::for_user("alice"))
    }

    #[test]
    fn hit_returns_the_same_snapshot() {
        let store = PolicyStore::new(StoreConfig::default());
        let k = key("acme", "t");
        assert!(store.get(&k).is_none());
        let policy = compiled("t");
        store.insert(k, Arc::clone(&policy));
        let hit = store.get(&k).expect("hit");
        assert!(Arc::ptr_eq(&policy, &hit));
        assert_eq!((store.hits(), store.misses()), (1, 1));
    }

    #[test]
    fn keys_separate_tenants_tasks_and_contexts() {
        let ctx_a = TrustedContext::for_user("alice");
        let ctx_b = TrustedContext::for_user("bob");
        assert_ne!(EngineKey::new("t1", "task", &ctx_a), EngineKey::new("t2", "task", &ctx_a));
        assert_ne!(EngineKey::new("t1", "task", &ctx_a), EngineKey::new("t1", "other", &ctx_a));
        assert_ne!(EngineKey::new("t1", "task", &ctx_a), EngineKey::new("t1", "task", &ctx_b));
    }

    #[test]
    fn lru_eviction_is_per_shard() {
        // One shard with room for two entries makes eviction deterministic.
        let store = PolicyStore::new(StoreConfig { shards: 1, capacity: 2 });
        let (k1, k2, k3) = (key("a", "1"), key("a", "2"), key("a", "3"));
        store.insert(k1, compiled("1"));
        store.insert(k2, compiled("2"));
        assert!(store.get(&k1).is_some()); // refresh k1; k2 becomes LRU
        store.insert(k3, compiled("3"));
        assert_eq!(store.len(), 2);
        assert!(store.get(&k1).is_some());
        assert!(store.get(&k2).is_none(), "k2 should have been evicted");
        assert!(store.get(&k3).is_some());
    }

    #[test]
    fn get_or_insert_compiles_once_then_hits() {
        let store = PolicyStore::new(StoreConfig::default());
        let k = key("acme", "t");
        let mut compile_count = 0;
        let (first, hit) = store.get_or_insert_with(k, || {
            compile_count += 1;
            compiled("t")
        });
        assert!(!hit);
        let (second, hit) = store.get_or_insert_with(k, || {
            compile_count += 1;
            compiled("t")
        });
        assert!(hit);
        assert_eq!(compile_count, 1);
        assert!(Arc::ptr_eq(&first, &second));
    }

    #[test]
    fn concurrent_readers_converge_on_one_snapshot() {
        let store = PolicyStore::new(StoreConfig::default());
        let k = key("acme", "t");
        store.insert(k, compiled("t"));
        std::thread::scope(|scope| {
            let handles: Vec<_> =
                (0..8).map(|_| scope.spawn(|| store.get(&k).expect("hit"))).collect();
            let snapshots: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            for pair in snapshots.windows(2) {
                assert!(Arc::ptr_eq(&pair[0], &pair[1]));
            }
        });
    }

    #[test]
    fn flush_tenant_removes_only_that_tenant() {
        let store = PolicyStore::new(StoreConfig::default());
        for task in ["a", "b", "c"] {
            store.insert(key("acme", task), compiled(task));
        }
        store.insert(key("globex", "a"), compiled("a"));
        // A snapshot resolved before the flush keeps working after it.
        let held = store.get(&key("acme", "a")).expect("installed");
        assert_eq!(store.flush_tenant("acme"), 3);
        assert_eq!(store.len(), 1);
        assert!(store.get(&key("acme", "a")).is_none(), "future lookups must miss");
        assert!(store.get(&key("globex", "a")).is_some(), "other tenants untouched");
        assert!(held.source_handle().task == "a", "in-flight snapshot survives the flush");
        assert_eq!(store.flush_tenant("acme"), 0, "second flush finds nothing");
        assert_eq!(store.flush_tenant("never-seen"), 0);
    }

    #[test]
    fn revoke_fingerprint_sweeps_only_matching_snapshots() {
        let store = PolicyStore::new(StoreConfig::default());
        let stale = compiled("stale task");
        let fresh = compiled("fresh task");
        let fp = stale.fingerprint();
        // The same stale policy installed under two keys (two contexts),
        // plus an unrelated policy and another tenant holding the same
        // fingerprint.
        store.insert(key("acme", "stale task"), Arc::clone(&stale));
        store.insert(
            EngineKey::new("acme", "stale task", &TrustedContext::for_user("bob")),
            Arc::clone(&stale),
        );
        store.insert(key("acme", "fresh task"), Arc::clone(&fresh));
        store.insert(key("globex", "stale task"), Arc::clone(&stale));
        assert_eq!(store.revoke_fingerprint("acme", fp), 2, "both stale keys swept");
        assert!(store.get(&key("acme", "stale task")).is_none());
        assert!(store.get(&key("acme", "fresh task")).is_some(), "other policies survive");
        assert!(store.get(&key("globex", "stale task")).is_some(), "other tenants survive");
        assert_eq!(store.revoke_fingerprint("acme", fp), 0, "second sweep finds nothing");
    }

    #[test]
    fn generation_mismatch_protects_a_racing_reinstall() {
        let store = PolicyStore::new(StoreConfig::default());
        let k = key("acme", "t");
        let gen1 = store.insert(k, compiled("t"));
        let (_, seen) = store.get_with_generation(&k).expect("installed");
        assert_eq!(seen, gen1);
        // A re-install lands between the revoker observing gen1 and
        // acting on it: the stale revocation must be a no-op.
        let gen2 = store.insert(k, compiled("t"));
        assert!(gen2 > gen1, "every install advances the generation");
        assert!(!store.revoke_if_generation(&k, gen1), "stale token must not revoke");
        assert!(store.get(&k).is_some(), "the fresh snapshot survives");
        assert!(store.revoke_if_generation(&k, gen2), "current token revokes");
        assert!(store.get(&k).is_none());
        assert!(!store.revoke_if_generation(&k, gen2), "second revoke finds nothing");
    }

    #[test]
    fn replace_reports_the_old_fingerprint() {
        let store = PolicyStore::new(StoreConfig::default());
        let k = key("acme", "t");
        let first = compiled("first");
        let second = compiled("second");
        let (old, _) = store.replace(k, Arc::clone(&first));
        assert_eq!(old, None, "nothing installed yet");
        let (old, _) = store.replace(k, Arc::clone(&second));
        assert_eq!(old, Some(first.fingerprint()));
        assert_eq!(store.len(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        PolicyStore::new(StoreConfig { shards: 0, capacity: 8 });
    }

    #[test]
    #[should_panic(expected = "at least one entry per shard")]
    fn capacity_below_shards_panics() {
        PolicyStore::new(StoreConfig { shards: 8, capacity: 4 });
    }
}
