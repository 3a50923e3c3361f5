//! Compiled-policy persistence: versioned on-disk snapshots and
//! warm-start.
//!
//! The paper's §7 endorses caching generated policies; until now every
//! process still paid full regeneration + compile cost on startup
//! because [`CompiledPolicy`] snapshots lived only in memory. This
//! module serialises a tenant's rendered policies so a fresh
//! [`PolicyStore`] can **warm-start** from disk — the "Context Space"
//! shape of precompiled, context-keyed policy artifacts — while staying
//! inside the trust rules the rest of the system keeps:
//!
//! - **One codec.** Policy bytes are written with the exact wire codec
//!   ([`conseca_core::codec`]) that `conseca-serve` frames use, so there
//!   is a single encoder, a single fail-closed decoder, and a single
//!   fuzz surface for both transports.
//! - **Fail-closed loading.** The file carries a magic, a snapshot
//!   format version, the codec version, and a trailing FNV-1a checksum
//!   over everything before it. Corruption, truncation, or version skew
//!   is a typed [`SnapshotError`] — nothing partial ever loads.
//! - **Nothing compiled is trusted.** A snapshot stores only *source*
//!   policies plus the fingerprints and cache keys they were installed
//!   under. On import each policy is re-fingerprinted (it must match the
//!   recorded fingerprint — the "Ghost in the Context" integrity
//!   binding), re-keyed, and **re-compiled**; the compiled form is never
//!   deserialised.
//! - **Revocation survives restarts.** [`Engine::import_snapshot`]
//!   gates every entry on the engine's own revocation journal: an entry
//!   whose source fingerprint was revoked after the snapshot was taken
//!   (and not reinstalled since) is skipped, so a warm start can never
//!   resurrect a policy hot-reload already retired. No caller passes a
//!   revocation set.
//! - **Concurrent installs win.** Import is compare-and-install
//!   ([`PolicyStore::install_absent`]): a key that is already live —
//!   because a fresher install or reload landed while the restore was in
//!   flight — is left alone, mirroring `revoke_if_generation`'s
//!   stale-token semantics.
//!
//! # Snapshot format (version 1)
//!
//! All integers big-endian; `str` is the codec's `u32` length + UTF-8.
//!
//! ```text
//! magic            8 bytes  "CSNPSHT\x01"
//! snapshot version u16      SNAPSHOT_VERSION (1)
//! codec version    u16      conseca_core::codec::CODEC_VERSION
//! tenant           str
//! entry count      u32
//! entries          count × entry
//! checksum         u64      fnv1a(all preceding bytes)
//!
//! entry:
//!   task fp        u64      cache-key task fingerprint
//!   context fp     u64      cache-key context fingerprint
//!   source fp      u64      Policy::fingerprint of the entry
//!   generation     u64      install generation the export observed
//!   policy         codec    the source policy (wire `Policy` block)
//! ```
//!
//! The full specification, including the revocation interaction and the
//! warm-start lifecycle, lives in `docs/persistence.md`.

use std::collections::HashSet;
use std::fmt;
use std::io;
use std::sync::Arc;

use conseca_core::codec::{self, Reader, WireError, Writer, CODEC_VERSION};
use conseca_core::{fnv1a, CacheKey, Policy};

use crate::compile::CompiledPolicy;
use crate::engine::Engine;
use crate::journal::JournalError;
use crate::store::{EngineKey, PolicyStore};

/// First bytes of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"CSNPSHT\x01";

/// Version of the snapshot container format (the envelope around the
/// codec-encoded policies). Bumped for any layout change; loaders
/// refuse snapshots from other versions.
pub const SNAPSHOT_VERSION: u16 = 1;

/// Why a snapshot could not be written or loaded. Every variant is
/// fail-closed: an `Err` means *nothing* was installed.
#[derive(Debug)]
pub enum SnapshotError {
    /// Reading or writing the file failed.
    Io(io::Error),
    /// The bytes are shorter than the smallest possible snapshot.
    Truncated,
    /// The file does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The snapshot container version is not [`SNAPSHOT_VERSION`].
    FormatSkew {
        /// Version recorded in the file.
        found: u16,
        /// Version this build speaks.
        expected: u16,
    },
    /// The policy codec version is not [`CODEC_VERSION`].
    CodecSkew {
        /// Version recorded in the file.
        found: u16,
        /// Version this build speaks.
        expected: u16,
    },
    /// The trailing checksum does not match the bytes — corruption or a
    /// torn write.
    ChecksumMismatch {
        /// Checksum recorded in the file.
        recorded: u64,
        /// Checksum computed over the file's bytes.
        computed: u64,
    },
    /// The snapshot was exported for a different tenant than the one it
    /// is being imported into.
    TenantMismatch {
        /// The tenant the import was asked to restore.
        expected: String,
        /// The tenant recorded in the snapshot.
        found: String,
    },
    /// An entry's decoded policy does not hash to the fingerprint
    /// recorded alongside it — the policy bytes and the identity they
    /// claim have diverged.
    FingerprintMismatch {
        /// Which entry (0-based) failed the binding.
        entry: usize,
        /// Fingerprint recorded in the snapshot.
        recorded: u64,
        /// Fingerprint computed from the decoded policy.
        computed: u64,
    },
    /// A policy block failed to encode or decode.
    Codec(WireError),
    /// The engine's revocation journal could not be read, so the import
    /// was refused: it must never run against a partial revocation set.
    Journal(JournalError),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O failed: {e}"),
            SnapshotError::Truncated => write!(f, "snapshot shorter than the minimal envelope"),
            SnapshotError::BadMagic => write!(f, "not a policy snapshot (bad magic)"),
            SnapshotError::FormatSkew { found, expected } => {
                write!(f, "snapshot format version {found}, this build speaks {expected}")
            }
            SnapshotError::CodecSkew { found, expected } => {
                write!(f, "snapshot codec version {found}, this build speaks {expected}")
            }
            SnapshotError::ChecksumMismatch { recorded, computed } => write!(
                f,
                "snapshot checksum mismatch (recorded {recorded:016x}, computed {computed:016x})"
            ),
            SnapshotError::TenantMismatch { expected, found } => {
                write!(f, "snapshot belongs to tenant {found:?}, not {expected:?}")
            }
            SnapshotError::FingerprintMismatch { entry, recorded, computed } => write!(
                f,
                "entry #{entry}: policy hashes to {computed:016x}, snapshot claims {recorded:016x}"
            ),
            SnapshotError::Codec(e) => write!(f, "snapshot policy block: {e}"),
            SnapshotError::Journal(e) => write!(f, "revocation journal unreadable: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<WireError> for SnapshotError {
    fn from(e: WireError) -> Self {
        SnapshotError::Codec(e)
    }
}

/// An exported tenant snapshot: the serialised bytes plus how many
/// entries they carry.
#[derive(Debug, Clone)]
pub struct TenantSnapshot {
    /// The snapshot file contents (envelope + entries + checksum).
    pub bytes: Vec<u8>,
    /// How many policy entries the snapshot records.
    pub entries: usize,
    /// Highest install generation among the exported entries (0 when
    /// empty) — the watermark an incremental exporter passes to the
    /// next [`PolicyStore::export_snapshot_since`].
    pub max_generation: u64,
}

/// One decoded snapshot entry — a source policy plus the identity it
/// was installed under.
#[derive(Debug, Clone)]
pub struct SnapshotEntry {
    /// Cache key (task fp, context fp) the policy was installed under.
    pub key: CacheKey,
    /// [`Policy::fingerprint`] recorded at export, verified on load.
    pub source_fp: u64,
    /// Install generation the export observed (see `docs/persistence.md`
    /// on why restores assign fresh generations anyway).
    pub generation: u64,
    /// The decoded source policy.
    pub policy: Policy,
}

/// A fully decoded, checksum-verified snapshot.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The tenant the snapshot was exported for.
    pub tenant: String,
    /// Entries in export order (sorted by cache key).
    pub entries: Vec<SnapshotEntry>,
}

/// What one [`Engine::import_snapshot`] did. The three counters
/// partition the snapshot's entries exactly:
/// `installed + skipped_revoked + skipped_live == entries`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmStartReport {
    /// Entries re-compiled and installed into empty keys.
    pub installed: usize,
    /// Entries skipped because the engine's journal holds their source
    /// fingerprint as revoked — a warm start never resurrects a revoked
    /// policy.
    pub skipped_revoked: usize,
    /// Entries skipped because the key was already live (a concurrent —
    /// hence newer — install wins over the restore).
    pub skipped_live: usize,
}

// The fixed-layout prefix: magic + snapshot version + codec version.
const PREFIX_LEN: usize = 8 + 2 + 2;
// Smallest legal snapshot: prefix + empty tenant str + zero count +
// checksum.
const MIN_LEN: usize = PREFIX_LEN + 4 + 4 + 8;

/// Serialises `entries`-shaped data into snapshot bytes. Internal;
/// [`PolicyStore::export_snapshot`] is the public entry point.
fn encode_snapshot(
    tenant: &str,
    entries: &[(CacheKey, u64, u64, Arc<Policy>)],
) -> Result<Vec<u8>, SnapshotError> {
    let mut w = Writer::unbounded();
    w.u64(u64::from_be_bytes(SNAPSHOT_MAGIC), "snapshot.magic")?;
    w.u16(SNAPSHOT_VERSION, "snapshot.version")?;
    w.u16(CODEC_VERSION, "snapshot.codec_version")?;
    w.str_(tenant, "snapshot.tenant")?;
    w.count(entries.len(), "snapshot.entries")?;
    for (key, source_fp, generation, policy) in entries {
        w.u64(key.task_fp(), "entry.task_fp")?;
        w.u64(key.context_fp(), "entry.context_fp")?;
        w.u64(*source_fp, "entry.source_fp")?;
        w.u64(*generation, "entry.generation")?;
        codec::put_policy(&mut w, policy)?;
    }
    let mut bytes = w.finish();
    let checksum = fnv1a(&bytes);
    bytes.extend_from_slice(&checksum.to_be_bytes());
    Ok(bytes)
}

/// Decodes and verifies snapshot bytes — the fail-closed trust boundary
/// every load passes through. Checks run outermost-first: envelope
/// length, magic, versions, then the whole-file checksum *before* any
/// variable-length field is decoded, then the per-entry fingerprint
/// binding as each policy is decoded.
///
/// # Errors
///
/// Any [`SnapshotError`]; nothing is returned partially decoded.
pub fn decode_snapshot(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
    if bytes.len() < MIN_LEN {
        return Err(SnapshotError::Truncated);
    }
    if bytes[..8] != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u16::from_be_bytes(bytes[8..10].try_into().unwrap());
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::FormatSkew { found: version, expected: SNAPSHOT_VERSION });
    }
    let codec_version = u16::from_be_bytes(bytes[10..12].try_into().unwrap());
    if codec_version != CODEC_VERSION {
        return Err(SnapshotError::CodecSkew { found: codec_version, expected: CODEC_VERSION });
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let recorded = u64::from_be_bytes(tail.try_into().unwrap());
    let computed = fnv1a(body);
    if recorded != computed {
        return Err(SnapshotError::ChecksumMismatch { recorded, computed });
    }
    let mut r = Reader::new(&body[PREFIX_LEN..]);
    let tenant = r.str_("snapshot.tenant")?;
    let count = r.u32("snapshot.entries")? as usize;
    let mut entries = Vec::new();
    for index in 0..count {
        let task_fp = r.u64("entry.task_fp")?;
        let context_fp = r.u64("entry.context_fp")?;
        let source_fp = r.u64("entry.source_fp")?;
        let generation = r.u64("entry.generation")?;
        let policy = r.policy()?;
        let computed = policy.fingerprint();
        if computed != source_fp {
            return Err(SnapshotError::FingerprintMismatch {
                entry: index,
                recorded: source_fp,
                computed,
            });
        }
        entries.push(SnapshotEntry {
            key: CacheKey::from_fingerprints(task_fp, context_fp),
            source_fp,
            generation,
            policy,
        });
    }
    r.finish().map_err(SnapshotError::Codec)?;
    Ok(Snapshot { tenant, entries })
}

impl PolicyStore {
    /// Serialises everything `tenant` currently has installed into
    /// snapshot bytes. Each shard is read under its read lock in one
    /// pass and each entry records the install generation the export
    /// observed, so a snapshot taken mid-reload is never a torn view —
    /// every entry is a complete policy that was live at its shard's
    /// cut (`tests/persist_race.rs` pins this under churn).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Codec`] if a policy exceeds the codec's
    /// representation limits.
    pub fn export_snapshot(&self, tenant: &str) -> Result<TenantSnapshot, SnapshotError> {
        self.export_snapshot_since(tenant, 0)
    }

    /// Like [`export_snapshot`](Self::export_snapshot) but only entries
    /// whose install generation is strictly greater than
    /// `after_generation` — the delta an incremental snapshot log
    /// appends between full rewrites. Pass the previous export's
    /// [`TenantSnapshot::max_generation`] as the watermark. An install
    /// racing the export cut may land at a generation at or below the
    /// watermark yet miss this delta; the log therefore only ever
    /// *under*-approximates the live store (a missing entry regenerates
    /// cold — fail-closed), and periodic full rewrites repair the gap.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Codec`] if a policy exceeds the codec's
    /// representation limits.
    pub fn export_snapshot_since(
        &self,
        tenant: &str,
        after_generation: u64,
    ) -> Result<TenantSnapshot, SnapshotError> {
        let slots = self.export_entries(tenant);
        let entries: Vec<(CacheKey, u64, u64, Arc<Policy>)> = slots
            .iter()
            .filter(|slot| slot.generation > after_generation)
            .map(|slot| (slot.key, slot.source_fp, slot.generation, slot.policy.source_handle()))
            .collect();
        let max_generation =
            entries.iter().map(|(_, _, generation, _)| *generation).max().unwrap_or(0);
        let bytes = encode_snapshot(tenant, &entries)?;
        Ok(TenantSnapshot {
            bytes,
            entries: entries.len(),
            max_generation: max_generation.max(after_generation),
        })
    }

    /// The install half of a warm start, for entries already decoded
    /// and verified (a single snapshot, or a merged snapshot log
    /// projection at crash recovery): fingerprints in `revoked` (the
    /// engine's journal) are skipped, live keys win, everything else is
    /// compiled fresh from the verified source policy.
    pub(crate) fn import_entries(
        &self,
        tenant: &str,
        entries: Vec<SnapshotEntry>,
        revoked: &HashSet<u64>,
    ) -> WarmStartReport {
        let mut report = WarmStartReport::default();
        for entry in entries {
            if revoked.contains(&entry.source_fp) {
                report.skipped_revoked += 1;
                continue;
            }
            let key = EngineKey::from_cache_key(tenant, entry.key);
            // Cheap advisory peek first: restoring into a mostly-live
            // store (the concurrent-install-wins pattern) should not pay
            // a full policy compile per entry just to throw it away.
            if self.is_live(&key) {
                report.skipped_live += 1;
                continue;
            }
            // Never trust a persisted artifact's compiled form: compile
            // fresh from the verified source policy. `install_absent`
            // re-checks under the write lock, so an install that raced
            // past the peek still wins.
            let compiled = Arc::new(CompiledPolicy::compile_arc(Arc::new(entry.policy)));
            match self.install_absent(key, compiled) {
                Some(_generation) => report.installed += 1,
                None => report.skipped_live += 1,
            }
        }
        report
    }
}

impl Engine {
    /// Verifies, re-keys, re-compiles, and installs a snapshot's
    /// policies for `tenant` — the warm-start path. Fail-closed: any
    /// corruption, version skew, tenant mismatch, or fingerprint-binding
    /// failure aborts the whole import with nothing installed. Entries
    /// whose fingerprint this engine's journal holds as revoked are
    /// skipped (a warm start must not resurrect a fingerprint revoked
    /// after the snapshot was taken), and keys that are already live
    /// are left to the concurrent install that got there first
    /// ([`PolicyStore::install_absent`] semantics).
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`]; [`SnapshotError::Journal`] when the
    /// journal cannot be read. On error nothing was installed.
    pub fn import_snapshot(
        &self,
        tenant: &str,
        bytes: &[u8],
    ) -> Result<WarmStartReport, SnapshotError> {
        let snapshot = decode_snapshot(bytes)?;
        if snapshot.tenant != tenant {
            return Err(SnapshotError::TenantMismatch {
                expected: tenant.to_owned(),
                found: snapshot.tenant,
            });
        }
        let revoked = self.revoked(tenant).map_err(SnapshotError::Journal)?;
        Ok(self.store().import_entries(tenant, snapshot.entries, &revoked))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conseca_core::{ArgConstraint, PolicyEntry, TrustedContext};
    use conseca_shell::ApiCall;

    fn policy(task: &str) -> Policy {
        let mut p = Policy::new(task);
        p.set(
            "send_email",
            PolicyEntry::allow(vec![ArgConstraint::regex("^alice$").unwrap()], "alice sends"),
        );
        p.set("delete_email", PolicyEntry::deny("no deletions"));
        p
    }

    fn ctx() -> TrustedContext {
        TrustedContext::for_user("alice")
    }

    fn call(name: &str, args: &[&str]) -> ApiCall {
        ApiCall::new("test", name, args.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn export_import_roundtrips_into_a_fresh_store() {
        let source = Engine::default();
        let p1 = policy("task one");
        let p2 = policy("task two");
        source.install("acme", &p1.task, &ctx(), &p1).unwrap();
        source.install("acme", &p2.task, &ctx(), &p2).unwrap();
        source.install("globex", &p1.task, &ctx(), &p1).unwrap(); // other tenant: excluded

        let snapshot = source.store().export_snapshot("acme").unwrap();
        assert_eq!(snapshot.entries, 2);

        let fresh = Engine::default();
        let report = fresh.import_snapshot("acme", &snapshot.bytes).unwrap();
        assert_eq!(report, WarmStartReport { installed: 2, skipped_revoked: 0, skipped_live: 0 });
        // The restored store serves byte-identical decisions to a fresh
        // compile of the same policies.
        for p in [&p1, &p2] {
            let warm = fresh.check("acme", &p.task, &ctx(), &call("send_email", &["alice"]));
            let cold = source.check("acme", &p.task, &ctx(), &call("send_email", &["alice"]));
            assert_eq!(warm, cold);
            let denied = fresh.check("acme", &p.task, &ctx(), &call("delete_email", &["1"]));
            assert!(!denied.unwrap().allowed);
        }
        // The other tenant was not smuggled along.
        assert!(fresh.check("globex", &p1.task, &ctx(), &call("send_email", &["alice"])).is_none());
    }

    #[test]
    fn trajectory_policies_survive_warm_start_without_resurrecting_budgets() {
        use crate::engine::{Billing, SessionState};
        use conseca_core::TrajectoryPolicy;

        let source = Engine::default();
        let mut p = policy("budgeted task");
        p.set_trajectory(TrajectoryPolicy::new().budget(1).forbid_after(
            "send_email",
            "delete_email",
            "order",
        ));
        source.install("acme", &p.task, &ctx(), &p).unwrap();

        // Spend the budget against the source engine's session.
        let mut session = SessionState::new();
        let send = call("send_email", &["alice"]);
        let key = EngineKey::new("acme", &p.task, &ctx());
        let resolve = |engine: &Engine| engine.resolve("acme", &key, Billing::Authoritative);
        assert!(resolve(&source).unwrap().check(Some(&mut session), &send).allowed);

        let snapshot = source.store().export_snapshot("acme").unwrap();
        let fresh = Engine::default();
        fresh.import_snapshot("acme", &snapshot.bytes).unwrap();

        // The warm-started snapshot decodes the trajectory block: same
        // fingerprint, compiled automata present.
        let restored = fresh.lookup("acme", &p.task, &ctx()).unwrap();
        assert_eq!(restored.fingerprint(), p.fingerprint());
        assert!(restored.trajectory().is_some(), "the trajectory block must survive the codec");

        // The session carried across the warm start still remembers the
        // spent budget — restoring policies must not restore allowances.
        let denied = resolve(&fresh).unwrap().check(Some(&mut session), &send);
        assert!(!denied.allowed, "warm start must not resurrect a spent budget");

        // A genuinely new session against the restored snapshot starts
        // fresh, as it would have on the source engine.
        let mut fresh_session = SessionState::new();
        assert!(resolve(&fresh).unwrap().check(Some(&mut fresh_session), &send).allowed);
    }

    #[test]
    fn snapshot_files_warm_start_an_engine() {
        let dir = std::env::temp_dir().join("conseca-persist-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("acme.csnap");
        let source = Engine::default();
        let p = policy("file roundtrip");
        source.install("acme", &p.task, &ctx(), &p).unwrap();
        let snapshot = source.store().export_snapshot("acme").unwrap();
        assert_eq!(snapshot.entries, 1);
        assert!(snapshot.bytes.len() >= MIN_LEN);
        std::fs::write(&path, &snapshot.bytes).unwrap();

        let fresh = Engine::default();
        let report = fresh.import_snapshot("acme", &std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(report.installed, 1);
        assert!(fresh.check("acme", &p.task, &ctx(), &call("send_email", &["alice"])).is_some());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_revoked_fingerprint_is_never_resurrected() {
        let engine = Engine::default();
        let p = policy("revoked later");
        engine.install("acme", &p.task, &ctx(), &p).unwrap();
        let snapshot = engine.store().export_snapshot("acme").unwrap();
        // The fingerprint is revoked *after* the snapshot was taken; the
        // engine's own journal gates the import, no caller set needed.
        engine.revoke_fingerprint("acme", p.fingerprint()).unwrap();

        let report = engine.import_snapshot("acme", &snapshot.bytes).unwrap();
        assert_eq!(report, WarmStartReport { installed: 0, skipped_revoked: 1, skipped_live: 0 });
        assert!(
            engine.check("acme", &p.task, &ctx(), &call("send_email", &["alice"])).is_none(),
            "a warm start must not resurrect a revoked policy"
        );
    }

    #[test]
    fn a_concurrent_install_wins_over_a_stale_restore() {
        let engine = Engine::default();
        let stale = policy("contested task");
        engine.install("acme", &stale.task, &ctx(), &stale).unwrap();
        let snapshot = engine.store().export_snapshot("acme").unwrap();
        // A newer policy lands at the same key before the restore runs.
        let mut fresh = Policy::new("contested task");
        fresh.set("send_email", PolicyEntry::deny("locked down since the export"));
        engine.reload("acme", &stale.task, &ctx(), &fresh).unwrap();

        let report = engine.import_snapshot("acme", &snapshot.bytes).unwrap();
        assert_eq!(report, WarmStartReport { installed: 0, skipped_revoked: 0, skipped_live: 1 });
        let decision =
            engine.check("acme", &stale.task, &ctx(), &call("send_email", &["alice"])).unwrap();
        assert!(!decision.allowed, "the live (newer) policy must keep serving");
    }

    #[test]
    fn corruption_fails_closed() {
        let engine = Engine::default();
        let p = policy("integrity");
        engine.install("acme", &p.task, &ctx(), &p).unwrap();
        let snapshot = engine.store().export_snapshot("acme").unwrap();
        let bytes = snapshot.bytes;

        // Truncation at every prefix length errors.
        for cut in 0..bytes.len() {
            let fresh = Engine::default();
            assert!(
                fresh.import_snapshot("acme", &bytes[..cut]).is_err(),
                "prefix of {cut} bytes must not load"
            );
            assert!(fresh.store().is_empty(), "nothing may install from a truncated snapshot");
        }
        // A flipped interior byte breaks the checksum (or an outer
        // field) — never loads.
        for at in [0, 9, PREFIX_LEN + 2, bytes.len() / 2, bytes.len() - 1] {
            let mut corrupt = bytes.clone();
            corrupt[at] ^= 0x40;
            assert!(
                Engine::default().import_snapshot("acme", &corrupt).is_err(),
                "flip at {at} must not load"
            );
        }
        // The pristine bytes still load.
        assert_eq!(Engine::default().import_snapshot("acme", &bytes).unwrap().installed, 1);
    }

    /// Rewrites the trailing checksum so tampered bytes pass the
    /// checksum gate — isolating the check under test.
    fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
        let body_len = bytes.len() - 8;
        let checksum = fnv1a(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&checksum.to_be_bytes());
        bytes
    }

    #[test]
    fn version_skew_is_a_typed_error() {
        let engine = Engine::default();
        let p = policy("versioned");
        engine.install("acme", &p.task, &ctx(), &p).unwrap();
        let bytes = engine.store().export_snapshot("acme").unwrap().bytes;

        let mut skewed = bytes.clone();
        skewed[9] = 0x63; // snapshot version
        match decode_snapshot(&reseal(skewed)) {
            Err(SnapshotError::FormatSkew { found: 0x63, expected: SNAPSHOT_VERSION }) => {}
            other => panic!("expected FormatSkew, got {other:?}"),
        }
        let mut skewed = bytes.clone();
        skewed[11] = 0x63; // codec version
        match decode_snapshot(&reseal(skewed)) {
            Err(SnapshotError::CodecSkew { found: 0x63, expected: CODEC_VERSION }) => {}
            other => panic!("expected CodecSkew, got {other:?}"),
        }
        let mut skewed = bytes;
        skewed[0] = b'X';
        assert!(matches!(decode_snapshot(&reseal(skewed)), Err(SnapshotError::BadMagic)));
    }

    #[test]
    fn tenant_and_fingerprint_bindings_hold() {
        let engine = Engine::default();
        let p = policy("bound");
        engine.install("acme", &p.task, &ctx(), &p).unwrap();
        let bytes = engine.store().export_snapshot("acme").unwrap().bytes;

        // Importing under another tenant is refused even though the
        // bytes are pristine — snapshots cannot cross tenants.
        match Engine::default().import_snapshot("globex", &bytes) {
            Err(SnapshotError::TenantMismatch { expected, found }) => {
                assert_eq!((expected.as_str(), found.as_str()), ("globex", "acme"));
            }
            other => panic!("expected TenantMismatch, got {other:?}"),
        }

        // Tampering with a recorded source fingerprint (checksum
        // resealed) trips the fingerprint binding: the policy no longer
        // hashes to what the snapshot claims.
        let entry_source_fp_at = PREFIX_LEN + 4 + "acme".len() + 4 + 8 + 8;
        let mut tampered = bytes;
        tampered[entry_source_fp_at] ^= 0x01;
        match decode_snapshot(&reseal(tampered)) {
            Err(SnapshotError::FingerprintMismatch { entry: 0, .. }) => {}
            other => panic!("expected FingerprintMismatch, got {other:?}"),
        }
    }

    #[test]
    fn empty_tenant_snapshots_roundtrip() {
        let engine = Engine::default();
        let snapshot = engine.store().export_snapshot("acme").unwrap();
        assert_eq!(snapshot.entries, 0);
        assert_eq!(snapshot.bytes.len(), MIN_LEN + "acme".len());
        let report = Engine::default().import_snapshot("acme", &snapshot.bytes);
        assert_eq!(report.unwrap(), WarmStartReport::default());
    }

    #[test]
    fn import_assigns_fresh_generations() {
        let source = Engine::default();
        let p = policy("generations");
        source.install("acme", &p.task, &ctx(), &p).unwrap();
        let snapshot = source.store().export_snapshot("acme").unwrap();
        let decoded = decode_snapshot(&snapshot.bytes).unwrap();
        assert_eq!(decoded.entries.len(), 1);
        assert!(decoded.entries[0].generation > 0, "the observed generation is recorded");

        let fresh = Engine::default();
        // Burn some generations so a naive reuse would collide.
        for i in 0..3 {
            let filler = policy(&format!("filler {i}"));
            fresh.install("acme", &filler.task, &ctx(), &filler).unwrap();
        }
        fresh.import_snapshot("acme", &snapshot.bytes).unwrap();
        let key = EngineKey::new("acme", &p.task, &ctx());
        let (_, generation) = fresh.store().get_with_generation(&key).expect("restored");
        assert!(generation > 3, "restores are stamped with the importing store's next generation");
        // And the restored slot participates in generation-compare
        // revocation like any other install.
        assert!(fresh.store().revoke_if_generation(&key, generation));
        assert!(fresh.store().get(&key).is_none());
    }
}
