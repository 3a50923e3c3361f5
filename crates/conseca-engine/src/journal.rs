//! The durable revocation ledger: an append-only, checksummed journal
//! of revoke/reinstate events that survives crashes.
//!
//! Every [`Engine`](crate::Engine) owns exactly one journal: its
//! revokes, install/reload reinstatements and snapshot imports all go
//! through it, so the engine is the one place that decides whether a
//! fingerprint is revoked. The journal starts in memory
//! ([`RevocationJournal::in_memory`]), which forgets everything on
//! restart. [`recover`](crate::recover) attaches a file-backed one,
//! closing that "crash-forgets-revocation" hole: a durable
//! [`RevocationJournal`] appends every revocation (and every deliberate
//! reinstatement) to a checksummed on-disk record *before* the caller
//! acknowledges it, so a fingerprint revoked before a crash can never
//! be resurrected after it: recovery replays the journal fail-closed
//! and gates every snapshot import on the replayed set.
//!
//! # Journal format (version 1)
//!
//! The journal is a record file (`docs/persistence.md` §9 and §12)
//! headed by [`JOURNAL_MAGIC`] and [`JOURNAL_VERSION`], with bodies of
//! at most [`MAX_RECORD_LEN`] bytes. A torn tail is cut off on open;
//! corruption refuses the whole journal (fail-closed: revocation state
//! that cannot be trusted is not loaded, and the caller must not serve
//! restores). A record body is (integers big-endian, `str` a `u32`
//! length + UTF-8):
//!
//! ```text
//! kind         u8       1 = revoke, 2 = reinstate
//! tenant       str
//! fingerprint  u64
//! ```
//!
//! # Bounded resident memory
//!
//! The journal keeps a per-tenant resident set of revoked fingerprints
//! for fast revoke/reinstate bookkeeping, capped at
//! [`JournalOptions::resident_cap`] entries per tenant. When a revoke
//! storm overflows the cap, the tenant is marked *spilled*: the
//! resident set becomes a recent-window cache and authoritative reads
//! ([`revoked_snapshot`](RevocationJournal::revoked_snapshot)) replay
//! the file instead. Resident memory therefore stays O(cap) per tenant
//! no matter how many fingerprints a storm retires — the disk record,
//! in turn, is bounded by compaction
//! ([`compact`](RevocationJournal::compact), also triggered
//! automatically every [`JournalOptions::compact_after`] appends),
//! which rewrites the file down to the live projection: one revoke
//! record per still-revoked fingerprint, every journaled-then-retired
//! entry dropped.
//!
//! The full trust model lives in `docs/persistence.md`.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use conseca_core::codec::{Reader, Writer};

pub use crate::record::JournalError;
use crate::record::{Layout, RecordFile};

/// First bytes of every journal file.
pub const JOURNAL_MAGIC: [u8; 8] = *b"CSLEDGR\x01";

/// Version of the journal record format. Bumped for any layout change;
/// replay refuses journals from other versions.
pub const JOURNAL_VERSION: u16 = 1;

/// Largest record body replay will allocate for. A genuine record is a
/// kind byte, a tenant name, and a fingerprint; anything claiming more
/// than this is corruption, refused before allocation (fail-closed,
/// like the wire framing's length cap).
pub const MAX_RECORD_LEN: u32 = 1 << 16;

pub(crate) const LAYOUT: Layout =
    Layout { magic: JOURNAL_MAGIC, version: JOURNAL_VERSION, max_len: MAX_RECORD_LEN };

/// What one journal record says happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalOp {
    /// The fingerprint was revoked for the tenant.
    Revoke,
    /// The fingerprint was deliberately reinstated (installed or
    /// reloaded again) and is no longer revoked.
    Reinstate,
}

/// One decoded journal record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// Revoke or reinstate.
    pub op: JournalOp,
    /// The tenant the event applies to.
    pub tenant: String,
    /// The policy source fingerprint.
    pub fingerprint: u64,
}

/// Tuning for a file-backed journal.
#[derive(Debug, Clone, Copy)]
pub struct JournalOptions {
    /// Most revoked fingerprints kept resident per tenant; beyond this
    /// the tenant spills and authoritative reads replay the file.
    pub resident_cap: usize,
    /// Appends between automatic compactions (0 disables auto
    /// compaction).
    pub compact_after: u64,
}

impl Default for JournalOptions {
    fn default() -> Self {
        JournalOptions { resident_cap: 4096, compact_after: 8192 }
    }
}

/// What replaying a journal found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalReplayReport {
    /// Records replayed (after any torn-tail repair).
    pub records: u64,
    /// Live revoked fingerprints across all tenants after replay.
    pub revoked: usize,
    /// Tenants with at least one live revocation.
    pub tenants: usize,
    /// Whether a crash left the file torn and open repaired it: an
    /// incomplete record at the tail (a crash mid-append) was cut off,
    /// or a partial header (a crash mid-create) was completed.
    pub repaired_torn_tail: bool,
}

/// What one [`RevocationJournal::compact`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactReport {
    /// Records in the journal before compaction.
    pub before: u64,
    /// Records after (one revoke per live fingerprint).
    pub after: u64,
}

/// Strictly decodes journal bytes: header, then every record, each
/// verified against its own checksum. Any truncation mid-record,
/// version skew, oversized length, or checksum failure is a typed
/// [`JournalError`] — nothing partial is returned. (Truncation at an
/// exact record boundary yields the shorter journal: an append-only
/// log is prefix-valid by construction; every *record* is still fully
/// verified.)
///
/// # Errors
///
/// Any [`JournalError`].
pub fn decode_journal(bytes: &[u8]) -> Result<Vec<JournalRecord>, JournalError> {
    LAYOUT.decode(bytes, decode_body)
}

fn encode_body(op: JournalOp, tenant: &str, fingerprint: u64) -> Vec<u8> {
    let mut w = Writer::unbounded();
    let kind = match op {
        JournalOp::Revoke => 1u8,
        JournalOp::Reinstate => 2u8,
    };
    w.u8(kind, "record.kind").expect("unbounded");
    w.str_(tenant, "record.tenant").expect("tenant fits a record");
    w.u64(fingerprint, "record.fingerprint").expect("unbounded");
    w.finish()
}

fn decode_body(offset: usize, body: &[u8]) -> Result<JournalRecord, JournalError> {
    let corrupt = |_| JournalError::CorruptRecord { offset };
    let mut r = Reader::new(body);
    let op = match r.u8("record.kind").map_err(corrupt)? {
        1 => JournalOp::Revoke,
        2 => JournalOp::Reinstate,
        _ => return Err(JournalError::CorruptRecord { offset }),
    };
    let tenant = r.str_("record.tenant").map_err(corrupt)?;
    let fingerprint = r.u64("record.fingerprint").map_err(corrupt)?;
    r.finish().map_err(corrupt)?;
    Ok(JournalRecord { op, tenant, fingerprint })
}

/// Replays a record stream into the live per-tenant projection.
fn project(records: &[JournalRecord]) -> HashMap<Box<str>, HashSet<u64>> {
    let mut live: HashMap<Box<str>, HashSet<u64>> = HashMap::new();
    for record in records {
        match record.op {
            JournalOp::Revoke => {
                live.entry(record.tenant.as_str().into()).or_default().insert(record.fingerprint);
            }
            JournalOp::Reinstate => {
                if let Some(set) = live.get_mut(record.tenant.as_str()) {
                    set.remove(&record.fingerprint);
                    if set.is_empty() {
                        live.remove(record.tenant.as_str());
                    }
                }
            }
        }
    }
    live
}

struct Inner {
    file: Option<RecordFile>,
    /// Per-tenant revoked fingerprints resident in memory. Exact for
    /// unspilled tenants; a recent window for spilled ones.
    resident: HashMap<Box<str>, HashSet<u64>>,
    /// Tenants whose resident set overflowed the cap — authoritative
    /// reads must replay the file.
    spilled: HashSet<Box<str>>,
    /// Records currently on disk (live + superseded).
    records: u64,
    /// Appends since the last compaction, for the auto trigger.
    appended_since_compact: u64,
}

impl Inner {
    fn new(file: Option<RecordFile>, records: u64) -> Self {
        Inner {
            file,
            resident: HashMap::new(),
            spilled: HashSet::new(),
            records,
            appended_since_compact: 0,
        }
    }

    /// Re-seeds the resident sets from a replayed projection, spilling
    /// every tenant whose live set exceeds `cap`.
    fn seed(&mut self, live: HashMap<Box<str>, HashSet<u64>>, cap: usize) {
        self.resident.clear();
        self.spilled.clear();
        for (tenant, set) in live {
            if set.len() > cap {
                self.spilled.insert(tenant.clone());
                self.resident.insert(tenant, set.into_iter().take(cap).collect());
            } else {
                self.resident.insert(tenant, set);
            }
        }
    }
}

/// The durable revocation ledger. All methods take `&self`; an
/// [`Engine`](crate::Engine) holds it in an `Arc`, shared with the
/// lifecycle daemon that opened it.
///
/// A journal without a path ([`in_memory`](Self::in_memory)) keeps the
/// same semantics minus durability — the resident sets are then exact
/// (nothing ever spills, because there is no file to read back from)
/// and every `record_*` call trivially succeeds. Every engine starts
/// with one, and a server without a configured data directory keeps
/// it.
pub struct RevocationJournal {
    path: Option<PathBuf>,
    options: JournalOptions,
    inner: Mutex<Inner>,
    /// Appends and automatic compactions that failed at the I/O layer.
    /// A failed revoke still applies in memory and a failed reinstate
    /// does not — more revocation is the safe direction — but
    /// durability was not achieved; callers that must guarantee it
    /// inspect the `record_*` result instead. A failed automatic
    /// compaction loses nothing (the journal stays longer but valid)
    /// and is retried on the next append; only this count shows it.
    io_errors: AtomicU64,
    /// Total records appended over this journal's lifetime.
    appended_total: AtomicU64,
    /// Compactions run (automatic + explicit).
    compactions: AtomicU64,
}

impl fmt::Debug for RevocationJournal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RevocationJournal")
            .field("path", &self.path)
            .field("options", &self.options)
            .finish_non_exhaustive()
    }
}

impl RevocationJournal {
    fn with_inner(path: Option<PathBuf>, options: JournalOptions, inner: Inner) -> Self {
        RevocationJournal {
            path,
            options,
            inner: Mutex::new(inner),
            io_errors: AtomicU64::new(0),
            appended_total: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
        }
    }

    /// A volatile journal: identical semantics, no file, never spills.
    pub fn in_memory() -> Self {
        Self::with_inner(None, JournalOptions::default(), Inner::new(None, 0))
    }

    /// Opens (or creates) the journal at `path` and replays it. A torn
    /// record at the tail — the signature of a crash mid-append — is
    /// cut off, and a partial header — a crash mid-create — completed:
    /// neither held an acknowledged event. Anything else wrong with the
    /// bytes is a hard error; revocation state that cannot be verified
    /// is never loaded.
    ///
    /// # Errors
    ///
    /// Any [`JournalError`].
    pub fn open(
        path: impl Into<PathBuf>,
        options: JournalOptions,
    ) -> Result<(Self, JournalReplayReport), JournalError> {
        let path = path.into();
        let (file, records, repaired) = RecordFile::open(path.clone(), LAYOUT, decode_body)?;
        let live = project(&records);
        let report = JournalReplayReport {
            records: records.len() as u64,
            revoked: live.values().map(HashSet::len).sum(),
            tenants: live.len(),
            repaired_torn_tail: repaired,
        };
        let mut inner = Inner::new(Some(file), report.records);
        inner.seed(live, options.resident_cap);
        Ok((Self::with_inner(Some(path), options, inner), report))
    }

    /// The backing file, if this journal is durable.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Records that `fingerprint` is revoked for `tenant`. The record is
    /// appended and synced **before** this returns, so a caller that
    /// applies the in-memory revocation after a successful return has
    /// the durable-before-acknowledged ordering. Idempotent: a
    /// fingerprint known to be revoked already appends nothing.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if the append or sync failed. The resident
    /// set is still updated (over-revoking is the fail-closed
    /// direction), but the caller must not claim durability.
    pub fn record_revoke(&self, tenant: &str, fingerprint: u64) -> Result<(), JournalError> {
        let mut inner = self.lock();
        let spilled = inner.spilled.contains(tenant);
        let known =
            !spilled && inner.resident.get(tenant).is_some_and(|set| set.contains(&fingerprint));
        let mut result = Ok(());
        if !known {
            result = self.append(&mut inner, JournalOp::Revoke, tenant, fingerprint);
        }
        let cap = self.options.resident_cap;
        let durable = self.path.is_some();
        let set = inner.resident.entry(tenant.into()).or_default();
        set.insert(fingerprint);
        // Only a durable journal may evict: an in-memory journal's
        // resident set IS the ledger, so spilling it would lose state.
        if durable && set.len() > cap {
            while set.len() > cap {
                if let Some(&evict) = set.iter().next() {
                    set.remove(&evict);
                } else {
                    break;
                }
            }
            inner.spilled.insert(tenant.into());
        }
        self.maybe_compact(&mut inner);
        result
    }

    /// Records that `fingerprint` was deliberately reinstated for
    /// `tenant` (installed or reloaded again): it leaves the revoked
    /// set, and restores may resurrect it. Appends only when the
    /// fingerprint may currently be revoked, so reinstating a live
    /// fingerprint is free and idempotent.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if the append or sync failed. The
    /// fingerprint then stays revoked in memory too (fail closed).
    pub fn record_reinstate(&self, tenant: &str, fingerprint: u64) -> Result<(), JournalError> {
        let mut inner = self.lock();
        let spilled = inner.spilled.contains(tenant);
        let known = inner.resident.get(tenant).is_some_and(|set| set.contains(&fingerprint));
        if known || spilled {
            self.append(&mut inner, JournalOp::Reinstate, tenant, fingerprint)?;
        }
        if let Some(set) = inner.resident.get_mut(tenant) {
            set.remove(&fingerprint);
        }
        self.maybe_compact(&mut inner);
        Ok(())
    }

    fn append(
        &self,
        inner: &mut Inner,
        op: JournalOp,
        tenant: &str,
        fingerprint: u64,
    ) -> Result<(), JournalError> {
        self.appended_total.fetch_add(1, Ordering::Relaxed);
        if let Some(file) = inner.file.as_mut() {
            if let Err(e) = file.append(&encode_body(op, tenant, fingerprint)) {
                self.io_errors.fetch_add(1, Ordering::Relaxed);
                return Err(e);
            }
            inner.records += 1;
            inner.appended_since_compact += 1;
        }
        Ok(())
    }

    fn maybe_compact(&self, inner: &mut Inner) {
        let threshold = self.options.compact_after;
        if threshold > 0 && inner.appended_since_compact >= threshold {
            // Best-effort: a failed auto-compaction leaves a longer but
            // still-valid journal behind the same handle (a rewrite
            // never reopens). The retry waits another `compact_after`
            // appends, so a persistent failure does not re-read the
            // whole journal on every revoke. The append succeeded, so
            // the failure shows only in `io_errors`.
            if self.compact_locked(inner).is_err() {
                inner.appended_since_compact = 0;
                self.io_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The authoritative revoked set for `tenant` — what every snapshot
    /// import is gated on. Resident (exact) for
    /// unspilled tenants; replayed from the file for spilled ones.
    ///
    /// # Errors
    ///
    /// [`JournalError`] if a spilled tenant's file cannot be replayed —
    /// the caller must refuse the restore rather than run it against a
    /// partial set.
    pub fn revoked_snapshot(&self, tenant: &str) -> Result<HashSet<u64>, JournalError> {
        let inner = self.lock();
        if !inner.spilled.contains(tenant) {
            return Ok(inner.resident.get(tenant).cloned().unwrap_or_default());
        }
        drop(inner);
        self.replay_tenant(tenant)
    }

    /// Every currently revoked fingerprint, by tenant — what
    /// [`Engine`](crate::Engine) copies into a durable journal it
    /// attaches.
    ///
    /// # Errors
    ///
    /// [`JournalError`] if a spilled journal cannot be replayed.
    pub(crate) fn revoked_by_tenant(
        &self,
    ) -> Result<HashMap<Box<str>, HashSet<u64>>, JournalError> {
        let inner = self.lock();
        if inner.spilled.is_empty() {
            return Ok(inner.resident.clone());
        }
        drop(inner);
        Ok(project(&self.read_records()?))
    }

    fn replay_tenant(&self, tenant: &str) -> Result<HashSet<u64>, JournalError> {
        let records = self.read_records()?;
        Ok(project(&records).remove(tenant).unwrap_or_default())
    }

    fn read_records(&self) -> Result<Vec<JournalRecord>, JournalError> {
        // Read under the inner lock so a concurrent append cannot hand
        // us a file with a record half-written.
        let inner = self.lock();
        inner.file.as_ref().expect("only durable journals replay").read_all(decode_body)
    }

    /// Fingerprints currently resident in memory, across all tenants —
    /// the number the storm regression test bounds.
    pub fn resident_entries(&self) -> usize {
        self.lock().resident.values().map(HashSet::len).sum()
    }

    /// Records currently on disk (live + superseded).
    pub fn records(&self) -> u64 {
        self.lock().records
    }

    /// Total appends attempted over this journal's lifetime.
    pub fn appended_total(&self) -> u64 {
        self.appended_total.load(Ordering::Relaxed)
    }

    /// Compactions run so far.
    pub fn compactions(&self) -> u64 {
        self.compactions.load(Ordering::Relaxed)
    }

    /// Appends and automatic compactions that failed at the I/O layer.
    pub fn io_errors(&self) -> u64 {
        self.io_errors.load(Ordering::Relaxed)
    }

    /// Rewrites the journal down to its live projection — one revoke
    /// record per still-revoked fingerprint — atomically (the record
    /// file's rewrite), then re-seeds the resident sets (un-spilling any
    /// tenant whose live set now fits the cap). A no-op for in-memory
    /// journals.
    ///
    /// # Errors
    ///
    /// [`JournalError`] on replay or rewrite failure. The file is then
    /// the original or the compacted one, never a mix, and appends keep
    /// working on it.
    pub fn compact(&self) -> Result<CompactReport, JournalError> {
        let mut inner = self.lock();
        self.compact_locked(&mut inner)
    }

    fn compact_locked(&self, inner: &mut Inner) -> Result<CompactReport, JournalError> {
        let Some(file) = inner.file.as_mut() else {
            return Ok(CompactReport::default());
        };
        let live = project(&file.read_all(decode_body)?);
        let mut sorted: Vec<(&Box<str>, Vec<u64>)> = live
            .iter()
            .map(|(tenant, set)| {
                let mut fps: Vec<u64> = set.iter().copied().collect();
                fps.sort_unstable();
                (tenant, fps)
            })
            .collect();
        sorted.sort_by(|a, b| a.0.cmp(b.0));
        let bodies: Vec<Vec<u8>> = sorted
            .iter()
            .flat_map(|(tenant, fps)| {
                fps.iter().map(|fp| encode_body(JournalOp::Revoke, tenant, *fp))
            })
            .collect();
        file.rewrite(bodies.iter().map(Vec::as_slice))?;
        let report = CompactReport { before: inner.records, after: bodies.len() as u64 };
        inner.records = report.after;
        inner.appended_since_compact = 0;
        inner.seed(live, self.options.resident_cap);
        self.compactions.fetch_add(1, Ordering::Relaxed);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::HEADER_LEN;

    fn tmp_path(name: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "conseca-journal-{}-{}-{name}.csj",
            std::process::id(),
            seq
        ))
    }

    struct Cleanup(PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn revocations_survive_a_reopen() {
        let path = tmp_path("reopen");
        let _cleanup = Cleanup(path.clone());
        {
            let (journal, report) =
                RevocationJournal::open(&path, JournalOptions::default()).unwrap();
            assert_eq!(report, JournalReplayReport::default());
            journal.record_revoke("acme", 7).unwrap();
            journal.record_revoke("acme", 8).unwrap();
            journal.record_revoke("globex", 7).unwrap();
            journal.record_reinstate("acme", 8).unwrap();
        }
        let (journal, report) = RevocationJournal::open(&path, JournalOptions::default()).unwrap();
        assert_eq!(report.records, 4);
        assert_eq!(report.revoked, 2);
        assert_eq!(report.tenants, 2);
        assert!(!report.repaired_torn_tail);
        assert!(journal.revoked_snapshot("acme").unwrap().contains(&7));
        assert!(!journal.revoked_snapshot("acme").unwrap().contains(&8), "reinstate survives too");
        assert!(journal.revoked_snapshot("globex").unwrap().contains(&7));
        assert!(!journal.revoked_snapshot("globex").unwrap().contains(&8));
    }

    #[test]
    fn records_are_idempotent() {
        let path = tmp_path("idempotent");
        let _cleanup = Cleanup(path.clone());
        let (journal, _) = RevocationJournal::open(&path, JournalOptions::default()).unwrap();
        for _ in 0..10 {
            journal.record_revoke("acme", 1).unwrap();
        }
        assert_eq!(journal.records(), 1, "re-revoking a revoked fp appends nothing");
        for _ in 0..10 {
            journal.record_reinstate("acme", 1).unwrap();
        }
        assert_eq!(journal.records(), 2, "re-reinstating a live fp appends nothing");
        journal.record_reinstate("acme", 99).unwrap();
        assert_eq!(journal.records(), 2, "reinstating a never-revoked fp appends nothing");
    }

    #[test]
    fn a_torn_tail_is_truncated_and_appends_resume() {
        let path = tmp_path("torn");
        let _cleanup = Cleanup(path.clone());
        {
            let (journal, _) = RevocationJournal::open(&path, JournalOptions::default()).unwrap();
            journal.record_revoke("acme", 1).unwrap();
            journal.record_revoke("acme", 2).unwrap();
        }
        // Simulate a crash mid-append: chop bytes off the last record.
        let bytes = std::fs::read(&path).unwrap();
        for cut in 1..20 {
            std::fs::write(&path, &bytes[..bytes.len() - cut]).unwrap();
            let (journal, report) =
                RevocationJournal::open(&path, JournalOptions::default()).unwrap();
            assert!(report.repaired_torn_tail, "cut of {cut} must read as a torn tail");
            assert_eq!(report.records, 1, "only the complete record survives");
            assert!(journal.revoked_snapshot("acme").unwrap().contains(&1));
            assert!(
                !journal.revoked_snapshot("acme").unwrap().contains(&2),
                "the torn record was never acknowledged"
            );
            // The journal keeps working after the repair.
            journal.record_revoke("acme", 3).unwrap();
            drop(journal);
            let (journal, report) =
                RevocationJournal::open(&path, JournalOptions::default()).unwrap();
            assert_eq!(report.records, 2);
            assert!(journal.revoked_snapshot("acme").unwrap().contains(&3));
            // Restore the two-record file for the next cut length.
            std::fs::write(&path, &bytes).unwrap();
        }
    }

    #[test]
    fn a_corrupt_interior_record_fails_closed() {
        let path = tmp_path("corrupt");
        let _cleanup = Cleanup(path.clone());
        {
            let (journal, _) = RevocationJournal::open(&path, JournalOptions::default()).unwrap();
            journal.record_revoke("acme", 1).unwrap();
            journal.record_revoke("acme", 2).unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        // Flip a byte inside the FIRST record's body: a complete record
        // failing its checksum is corruption, not a torn write.
        let mut corrupt = bytes.clone();
        corrupt[HEADER_LEN + 5] ^= 0x40;
        std::fs::write(&path, &corrupt).unwrap();
        assert!(matches!(
            RevocationJournal::open(&path, JournalOptions::default()),
            Err(JournalError::CorruptRecord { .. })
        ));
        // Version skew and magic damage are typed errors too.
        let mut skewed = bytes.clone();
        skewed[9] = 0x63;
        std::fs::write(&path, &skewed).unwrap();
        assert!(matches!(
            RevocationJournal::open(&path, JournalOptions::default()),
            Err(JournalError::FormatSkew { found: 0x63, .. })
        ));
        let mut bad = bytes;
        bad[0] = b'X';
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            RevocationJournal::open(&path, JournalOptions::default()),
            Err(JournalError::BadMagic)
        ));
    }

    #[test]
    fn strict_decode_rejects_truncation_and_oversized_lengths() {
        let path = tmp_path("strict");
        let _cleanup = Cleanup(path.clone());
        let (journal, _) = RevocationJournal::open(&path, JournalOptions::default()).unwrap();
        journal.record_revoke("acme", 1).unwrap();
        drop(journal);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(decode_journal(&bytes).unwrap().len(), 1);
        for cut in 1..bytes.len() - HEADER_LEN {
            assert!(
                decode_journal(&bytes[..bytes.len() - cut]).is_err(),
                "strict decode must reject a {cut}-byte truncation"
            );
        }
        let mut huge = bytes[..HEADER_LEN].to_vec();
        huge.extend_from_slice(&(MAX_RECORD_LEN + 1).to_be_bytes());
        huge.extend_from_slice(&[0u8; 32]);
        assert!(matches!(decode_journal(&huge), Err(JournalError::RecordTooLarge { .. })));
    }

    #[test]
    fn a_revoke_storm_keeps_resident_memory_bounded() {
        let path = tmp_path("storm");
        let _cleanup = Cleanup(path.clone());
        let options = JournalOptions { resident_cap: 256, compact_after: 0 };
        let (journal, _) = RevocationJournal::open(&path, options).unwrap();
        for fp in 0..10_000u64 {
            journal.record_revoke("acme", fp).unwrap();
        }
        assert!(
            journal.resident_entries() <= 256,
            "resident memory must stay bounded under a storm (got {})",
            journal.resident_entries()
        );
        // Authoritative reads stay exact by replaying the file.
        let snapshot = journal.revoked_snapshot("acme").unwrap();
        assert_eq!(snapshot.len(), 10_000);
        assert!(journal.revoked_snapshot("acme").unwrap().contains(&0));
        assert!(journal.revoked_snapshot("acme").unwrap().contains(&9_999));
        assert!(!journal.revoked_snapshot("acme").unwrap().contains(&10_000));
        // Reinstates against a spilled tenant are honoured.
        journal.record_reinstate("acme", 5_000).unwrap();
        assert!(!journal.revoked_snapshot("acme").unwrap().contains(&5_000));
        assert_eq!(journal.revoked_snapshot("acme").unwrap().len(), 9_999);
    }

    #[test]
    fn compaction_shrinks_the_file_and_preserves_the_projection() {
        let path = tmp_path("compact");
        let _cleanup = Cleanup(path.clone());
        let options = JournalOptions { resident_cap: 4096, compact_after: 0 };
        let (journal, _) = RevocationJournal::open(&path, options).unwrap();
        // Churn: revoke then reinstate most fingerprints.
        for fp in 0..500u64 {
            journal.record_revoke("acme", fp).unwrap();
        }
        for fp in 0..490u64 {
            journal.record_reinstate("acme", fp).unwrap();
        }
        let before_len = std::fs::metadata(&path).unwrap().len();
        let report = journal.compact().unwrap();
        assert_eq!(report, CompactReport { before: 990, after: 10 });
        assert!(std::fs::metadata(&path).unwrap().len() < before_len / 10);
        for fp in 490..500u64 {
            assert!(journal.revoked_snapshot("acme").unwrap().contains(&fp));
        }
        assert!(!journal.revoked_snapshot("acme").unwrap().contains(&0));
        // Appends keep working after the compaction swapped the file.
        journal.record_revoke("acme", 1_000).unwrap();
        drop(journal);
        let (journal, report) = RevocationJournal::open(&path, options).unwrap();
        assert_eq!(report.revoked, 11);
        assert!(journal.revoked_snapshot("acme").unwrap().contains(&1_000));
    }

    #[test]
    fn auto_compaction_bounds_the_file_under_churn() {
        let path = tmp_path("auto");
        let _cleanup = Cleanup(path.clone());
        let options = JournalOptions { resident_cap: 4096, compact_after: 64 };
        let (journal, _) = RevocationJournal::open(&path, options).unwrap();
        for round in 0..20u64 {
            for fp in 0..16u64 {
                journal.record_revoke("acme", round * 16 + fp).unwrap();
                journal.record_reinstate("acme", round * 16 + fp).unwrap();
            }
        }
        assert!(journal.compactions() > 0, "the auto trigger must have fired");
        assert!(
            journal.records() < 128,
            "churned-out records must be compacted away (got {})",
            journal.records()
        );
        assert!(journal.revoked_snapshot("acme").unwrap().is_empty());
    }

    #[test]
    fn a_failed_auto_compaction_is_counted_and_retried() {
        let path = tmp_path("failed-compact");
        let _cleanup = Cleanup(path.clone());
        // A directory where the rewrite puts its temporary file: removing
        // a stale one fails, so every compaction fails until it goes.
        let mut tmp = path.clone().into_os_string();
        tmp.push(".tmp");
        std::fs::create_dir(&tmp).unwrap();
        let options = JournalOptions { resident_cap: 4096, compact_after: 4 };
        let (journal, _) = RevocationJournal::open(&path, options).unwrap();
        for fp in 0..4u64 {
            journal.record_revoke("acme", fp).unwrap();
        }
        assert_eq!((journal.io_errors(), journal.compactions()), (1, 0));
        let (reopened, report) = RevocationJournal::open(&path, options).unwrap();
        assert_eq!((report.records, report.revoked), (4, 4), "nothing was lost");
        assert_eq!(reopened.revoked_snapshot("acme").unwrap().len(), 4);
        drop(reopened);
        std::fs::remove_dir(&tmp).unwrap();
        for fp in 4..7u64 {
            journal.record_revoke("acme", fp).unwrap();
            assert_eq!((journal.io_errors(), journal.compactions()), (1, 0), "no retry yet");
        }
        journal.record_revoke("acme", 7).unwrap();
        assert_eq!(
            (journal.io_errors(), journal.compactions()),
            (1, 1),
            "the compact_after-th append after the failure retries"
        );
        assert_eq!(journal.revoked_snapshot("acme").unwrap().len(), 8);
    }

    #[test]
    fn in_memory_journals_never_spill_and_never_touch_disk() {
        let journal = RevocationJournal::in_memory();
        for fp in 0..10_000u64 {
            journal.record_revoke("acme", fp).unwrap();
        }
        // No file to re-read: the resident set must stay exact.
        assert_eq!(journal.resident_entries(), 10_000);
        assert_eq!(journal.revoked_snapshot("acme").unwrap().len(), 10_000);
        journal.record_reinstate("acme", 1).unwrap();
        assert!(!journal.revoked_snapshot("acme").unwrap().contains(&1));
        assert_eq!(journal.records(), 0);
        assert_eq!(journal.compact().unwrap(), CompactReport::default());
    }
}
