//! Incremental, append-only snapshot logs and crash recovery.
//!
//! A [`SnapshotLog`] is the durable form of one tenant's policy store:
//! instead of rewriting a full snapshot file on every change (the
//! [`Engine::snapshot_to`](crate::Engine::snapshot_to) shape), a
//! lifecycle daemon appends *delta* segments — snapshots of only the
//! entries installed since the last tick's generation watermark — and
//! periodically compacts them into a single *full* segment. A `Flush`
//! marker records that the tenant's store was emptied, so replay does
//! not resurrect pre-flush entries.
//!
//! [`recover`] is the boot path: open the revocation journal, attach it
//! to the engine, merge every tenant's log into its live projection,
//! gate each entry on the replayed revocation set, and re-compile from
//! verified source — the `load ledger → load snapshots → re-key,
//! re-compile, never resurrect` sequence. Recovery is fail-closed at every layer: a
//! ledger that cannot be verified aborts recovery entirely (revocation
//! state must never be guessed at), and a snapshot log that cannot be
//! verified is set aside and its tenant starts cold (a missing policy
//! regenerates; a corrupt one must never load).
//!
//! # Log format (version 1)
//!
//! ```text
//! header:
//!   magic        8 bytes  "CSNPLOG\x01"
//!   version      u16      SNAPSHOT_LOG_VERSION (1)
//! segment (repeated):
//!   len          u32      length of body
//!   body:
//!     kind       u8       1 = full, 2 = delta, 3 = flush
//!     snapshot   bytes    (kinds 1 and 2) a complete snapshot-v1 blob,
//!                         verified by decode_snapshot on replay
//!   checksum     u64      fnv1a(len_be ++ body)
//! ```
//!
//! Same torn-write semantics as the revocation journal: per-segment
//! checksums cover the length prefix, a crash mid-append leaves exactly
//! one incomplete tail segment (truncated on open), and a *complete*
//! segment that fails verification is corruption. Nested snapshot
//! blobs additionally pass the full snapshot-v1 trust boundary
//! ([`decode_snapshot`]) — magic, versions, whole-blob checksum, and
//! per-entry fingerprint binding — so a resealed outer checksum cannot
//! smuggle a tampered policy past replay.
//!
//! # Why deltas may under-approximate
//!
//! An install racing a delta export can land at a generation at or
//! below the watermark but after the export's shard cut, so the log can
//! momentarily miss a live entry. It can never claim an entry the
//! store did not have. Under-approximation is the safe direction: a
//! missing policy regenerates cold on first use, and the periodic full
//! rewrite repairs the gap. See `docs/persistence.md`.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use conseca_core::fnv1a;

use crate::engine::Engine;
use crate::journal::{JournalError, JournalOptions, JournalReplayReport, RevocationJournal};
use crate::persist::{decode_snapshot, SnapshotEntry, SnapshotError, WarmStartReport};

/// First bytes of every snapshot log file.
pub const SNAPSHOT_LOG_MAGIC: [u8; 8] = *b"CSNPLOG\x01";

/// Version of the log segment framing. Bumped for any layout change;
/// replay refuses logs from other versions.
pub const SNAPSHOT_LOG_VERSION: u16 = 1;

const HEADER_LEN: usize = 8 + 2;
/// Largest segment body replay will allocate for — comfortably above
/// any real tenant snapshot, far below anything a bit-flipped length
/// field could ask for.
pub const MAX_SEGMENT_LEN: u32 = 1 << 26;

const KIND_FULL: u8 = 1;
const KIND_DELTA: u8 = 2;
const KIND_FLUSH: u8 = 3;

/// One verified segment of a snapshot log.
#[derive(Debug, Clone)]
pub enum LogSegment {
    /// A complete picture of the tenant's store at the cut; replay
    /// discards everything before it.
    Full(crate::persist::Snapshot),
    /// Entries installed since the previous watermark; replay upserts
    /// them by key, newest generation winning.
    Delta(crate::persist::Snapshot),
    /// The tenant's store was flushed; replay discards everything
    /// before it.
    Flush,
}

/// Why snapshot-log bytes could not be written or replayed. Fail-closed
/// like [`JournalError`]: an `Err` means nothing was loaded.
#[derive(Debug)]
pub enum SnapshotLogError {
    /// Reading or writing the file failed.
    Io(io::Error),
    /// The bytes end before the header (or, in strict decoding, inside
    /// a segment).
    Truncated,
    /// The file does not start with [`SNAPSHOT_LOG_MAGIC`].
    BadMagic,
    /// The log format version is not [`SNAPSHOT_LOG_VERSION`].
    FormatSkew {
        /// Version recorded in the file.
        found: u16,
        /// Version this build speaks.
        expected: u16,
    },
    /// A segment at `offset` claims a body larger than
    /// [`MAX_SEGMENT_LEN`].
    SegmentTooLarge {
        /// Byte offset of the segment's length prefix.
        offset: usize,
        /// The claimed body length.
        len: u32,
    },
    /// A complete segment at `offset` failed its framing checksum or
    /// carries an unknown kind.
    CorruptSegment {
        /// Byte offset of the segment's length prefix.
        offset: usize,
    },
    /// A segment's framing verified but its nested snapshot blob failed
    /// the snapshot-v1 trust boundary.
    BadSnapshot {
        /// Byte offset of the enclosing segment.
        offset: usize,
        /// What the snapshot decoder rejected.
        error: SnapshotError,
    },
    /// Two segments in one log disagree about the tenant.
    TenantMismatch {
        /// Tenant of the log's first snapshot-bearing segment.
        expected: String,
        /// Tenant a later segment claims.
        found: String,
    },
}

impl fmt::Display for SnapshotLogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotLogError::Io(e) => write!(f, "snapshot log I/O failed: {e}"),
            SnapshotLogError::Truncated => write!(f, "snapshot log truncated mid-segment"),
            SnapshotLogError::BadMagic => write!(f, "not a snapshot log (bad magic)"),
            SnapshotLogError::FormatSkew { found, expected } => {
                write!(f, "snapshot log version {found}, this build speaks {expected}")
            }
            SnapshotLogError::SegmentTooLarge { offset, len } => {
                write!(f, "segment at byte {offset} claims {len} bytes (cap {MAX_SEGMENT_LEN})")
            }
            SnapshotLogError::CorruptSegment { offset } => {
                write!(f, "segment at byte {offset} failed its checksum")
            }
            SnapshotLogError::BadSnapshot { offset, error } => {
                write!(f, "segment at byte {offset} carries a bad snapshot: {error}")
            }
            SnapshotLogError::TenantMismatch { expected, found } => {
                write!(f, "log for tenant {expected:?} contains a segment for {found:?}")
            }
        }
    }
}

impl std::error::Error for SnapshotLogError {}

impl From<io::Error> for SnapshotLogError {
    fn from(e: io::Error) -> Self {
        SnapshotLogError::Io(e)
    }
}

fn segment_checksum(len: u32, body: &[u8]) -> u64 {
    let mut covered = Vec::with_capacity(4 + body.len());
    covered.extend_from_slice(&len.to_be_bytes());
    covered.extend_from_slice(body);
    fnv1a(&covered)
}

fn encode_segment(kind: u8, blob: &[u8]) -> Vec<u8> {
    let mut body = Vec::with_capacity(1 + blob.len());
    body.push(kind);
    body.extend_from_slice(blob);
    let len = body.len() as u32;
    debug_assert!(len <= MAX_SEGMENT_LEN);
    let mut out = Vec::with_capacity(4 + body.len() + 8);
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(&body);
    out.extend_from_slice(&segment_checksum(len, &body).to_be_bytes());
    out
}

/// Strictly decodes snapshot-log bytes: header, then every segment
/// verified against its framing checksum, then every nested snapshot
/// blob through the full snapshot-v1 trust boundary. Any truncation,
/// skew, oversized length, framing failure, or nested-snapshot failure
/// is a typed error; nothing partial is returned.
///
/// # Errors
///
/// Any [`SnapshotLogError`].
pub fn decode_snapshot_log(bytes: &[u8]) -> Result<Vec<LogSegment>, SnapshotLogError> {
    let (segments, consumed, _torn) = decode_log_prefix(bytes)?;
    if consumed != bytes.len() {
        return Err(SnapshotLogError::Truncated);
    }
    Ok(segments)
}

/// Lenient decoding for crash recovery: a trailing incomplete segment
/// (a torn append) stops the parse cleanly at `consumed` instead of
/// erroring. A complete segment that fails verification still errors.
fn decode_log_prefix(bytes: &[u8]) -> Result<(Vec<LogSegment>, usize, bool), SnapshotLogError> {
    if bytes.len() < HEADER_LEN {
        return Err(SnapshotLogError::Truncated);
    }
    if bytes[..8] != SNAPSHOT_LOG_MAGIC {
        return Err(SnapshotLogError::BadMagic);
    }
    let version = u16::from_be_bytes(bytes[8..10].try_into().unwrap());
    if version != SNAPSHOT_LOG_VERSION {
        return Err(SnapshotLogError::FormatSkew {
            found: version,
            expected: SNAPSHOT_LOG_VERSION,
        });
    }
    let mut segments = Vec::new();
    let mut offset = HEADER_LEN;
    while offset < bytes.len() {
        let remaining = &bytes[offset..];
        if remaining.len() < 4 {
            return Ok((segments, offset, true));
        }
        let len = u32::from_be_bytes(remaining[..4].try_into().unwrap());
        if len > MAX_SEGMENT_LEN {
            return Err(SnapshotLogError::SegmentTooLarge { offset, len });
        }
        let total = 4 + len as usize + 8;
        if remaining.len() < total {
            return Ok((segments, offset, true));
        }
        let body = &remaining[4..4 + len as usize];
        let recorded = u64::from_be_bytes(remaining[4 + len as usize..total].try_into().unwrap());
        if recorded != segment_checksum(len, body) || body.is_empty() {
            return Err(SnapshotLogError::CorruptSegment { offset });
        }
        let segment = match body[0] {
            KIND_FULL | KIND_DELTA => {
                let snapshot = decode_snapshot(&body[1..])
                    .map_err(|error| SnapshotLogError::BadSnapshot { offset, error })?;
                if body[0] == KIND_FULL {
                    LogSegment::Full(snapshot)
                } else {
                    LogSegment::Delta(snapshot)
                }
            }
            KIND_FLUSH => {
                if body.len() != 1 {
                    return Err(SnapshotLogError::CorruptSegment { offset });
                }
                LogSegment::Flush
            }
            _ => return Err(SnapshotLogError::CorruptSegment { offset }),
        };
        segments.push(segment);
        offset += total;
    }
    Ok((segments, offset, false))
}

/// Replays verified segments into the tenant's live projection: `Full`
/// and `Flush` reset the view, `Delta` upserts by cache key with the
/// higher generation winning. Every snapshot-bearing segment must name
/// `tenant`.
///
/// # Errors
///
/// [`SnapshotLogError::TenantMismatch`] if a segment names another
/// tenant.
pub fn merge_segments(
    tenant: &str,
    segments: &[LogSegment],
) -> Result<Vec<SnapshotEntry>, SnapshotLogError> {
    let mut view: BTreeMap<(u64, u64), SnapshotEntry> = BTreeMap::new();
    for segment in segments {
        match segment {
            LogSegment::Full(snapshot) | LogSegment::Delta(snapshot) => {
                if snapshot.tenant != tenant {
                    return Err(SnapshotLogError::TenantMismatch {
                        expected: tenant.to_owned(),
                        found: snapshot.tenant.clone(),
                    });
                }
                if matches!(segment, LogSegment::Full(_)) {
                    view.clear();
                }
                for entry in &snapshot.entries {
                    let key = (entry.key.task_fp(), entry.key.context_fp());
                    match view.get(&key) {
                        Some(existing) if existing.generation >= entry.generation => {}
                        _ => {
                            view.insert(key, entry.clone());
                        }
                    }
                }
            }
            LogSegment::Flush => view.clear(),
        }
    }
    Ok(view.into_values().collect())
}

/// The tenant a log's segments describe, from its first
/// snapshot-bearing segment (`None` if the log holds only flush
/// markers).
pub fn segments_tenant(segments: &[LogSegment]) -> Option<&str> {
    segments.iter().find_map(|segment| match segment {
        LogSegment::Full(snapshot) | LogSegment::Delta(snapshot) => Some(snapshot.tenant.as_str()),
        LogSegment::Flush => None,
    })
}

/// An open, append-only snapshot log for one tenant. Not internally
/// synchronised — the lifecycle daemon serialises writers per tenant.
#[derive(Debug)]
pub struct SnapshotLog {
    path: PathBuf,
    file: File,
    segments: u64,
}

impl SnapshotLog {
    /// Opens (or creates) the log at `path`, replaying what is already
    /// there. A torn tail segment is truncated away (the tick that
    /// wrote it never completed); any other damage is a hard error —
    /// the caller sets the file aside and starts the tenant cold.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotLogError`].
    pub fn create_or_open(
        path: impl Into<PathBuf>,
    ) -> Result<(Self, Vec<LogSegment>), SnapshotLogError> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let segments = if path.exists() {
            let mut bytes = Vec::new();
            File::open(&path)?.read_to_end(&mut bytes)?;
            let (segments, consumed, torn) = decode_log_prefix(&bytes)?;
            if torn {
                let file = OpenOptions::new().write(true).open(&path)?;
                file.set_len(consumed as u64)?;
                file.sync_data()?;
            }
            segments
        } else {
            let mut file = File::create(&path)?;
            file.write_all(&SNAPSHOT_LOG_MAGIC)?;
            file.write_all(&SNAPSHOT_LOG_VERSION.to_be_bytes())?;
            file.sync_data()?;
            Vec::new()
        };
        let file = OpenOptions::new().append(true).open(&path)?;
        let count = segments.len() as u64;
        Ok((SnapshotLog { path, file, segments: count }, segments))
    }

    /// The backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Segments currently in the file.
    pub fn segments(&self) -> u64 {
        self.segments
    }

    /// Appends a delta segment carrying `snapshot_bytes` (a complete,
    /// checksummed snapshot-v1 blob) and syncs.
    ///
    /// # Errors
    ///
    /// [`SnapshotLogError::Io`].
    pub fn append_delta(&mut self, snapshot_bytes: &[u8]) -> Result<(), SnapshotLogError> {
        self.append(KIND_DELTA, snapshot_bytes)
    }

    /// Appends a flush marker: replay discards everything before it.
    ///
    /// # Errors
    ///
    /// [`SnapshotLogError::Io`].
    pub fn append_flush(&mut self) -> Result<(), SnapshotLogError> {
        self.append(KIND_FLUSH, &[])
    }

    fn append(&mut self, kind: u8, blob: &[u8]) -> Result<(), SnapshotLogError> {
        let segment = encode_segment(kind, blob);
        self.file.write_all(&segment)?;
        self.file.sync_data()?;
        self.segments += 1;
        Ok(())
    }

    /// Compacts the log down to one full segment carrying
    /// `snapshot_bytes`, via a temp file and an atomic rename. The
    /// original file is untouched on error.
    ///
    /// # Errors
    ///
    /// [`SnapshotLogError::Io`].
    pub fn rewrite_full(&mut self, snapshot_bytes: &[u8]) -> Result<(), SnapshotLogError> {
        let tmp = self.path.with_extension("cslog.tmp");
        {
            let mut file = File::create(&tmp)?;
            file.write_all(&SNAPSHOT_LOG_MAGIC)?;
            file.write_all(&SNAPSHOT_LOG_VERSION.to_be_bytes())?;
            file.write_all(&encode_segment(KIND_FULL, snapshot_bytes))?;
            file.sync_data()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        self.segments = 1;
        Ok(())
    }
}

/// Where one tenant's snapshot log lives under a data directory. File
/// names are the tenant-name fingerprint, not the tenant name itself,
/// so arbitrary tenant strings never reach the filesystem.
pub fn tenant_log_path(data_dir: &Path, tenant: &str) -> PathBuf {
    data_dir.join("snapshots").join(format!("{:016x}.cslog", fnv1a(tenant.as_bytes())))
}

/// Where the revocation journal lives under a data directory.
pub fn ledger_path(data_dir: &Path) -> PathBuf {
    data_dir.join("ledger.csj")
}

/// Tuning for [`recover`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoverOptions {
    /// Passed through to [`RevocationJournal::open`].
    pub journal: JournalOptions,
}

/// What [`recover`] found and did.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// What replaying the revocation journal found.
    pub journal: JournalReplayReport,
    /// Tenants whose snapshot logs were merged and imported, with each
    /// tenant's warm-start outcome.
    pub tenants: Vec<(String, WarmStartReport)>,
    /// Snapshot log files that failed verification, were renamed aside
    /// (`.corrupt`), and whose tenants therefore start cold.
    pub corrupt_logs: usize,
}

impl RecoveryReport {
    /// Entries re-compiled and installed across all tenants.
    pub fn installed(&self) -> usize {
        self.tenants.iter().map(|(_, report)| report.installed).sum()
    }

    /// Entries refused because their fingerprint was revoked before the
    /// crash.
    pub fn skipped_revoked(&self) -> usize {
        self.tenants.iter().map(|(_, report)| report.skipped_revoked).sum()
    }
}

/// A recovered durable state: the (re-)opened journal plus the report.
#[derive(Debug)]
pub struct Recovery {
    /// The revocation journal, replayed, ready for appends, and already
    /// attached to the engine as its one revocation journal.
    pub journal: Arc<RevocationJournal>,
    /// What was recovered.
    pub report: RecoveryReport,
}

/// Crash recovery for a data directory: replay the revocation journal
/// (fail-closed — a ledger that cannot be verified aborts recovery,
/// because restores must never run against guessed revocation state)
/// and attach it to `engine`, which copies any revocations the engine
/// already held into it and makes every later revoke, install and
/// import durable; then merge each tenant's snapshot log and warm-start
/// the engine from it, gating every entry on the journal and
/// re-compiling from verified source. A snapshot log that fails
/// verification is renamed aside with a `.corrupt` suffix and its
/// tenant starts cold: a policy that cannot be verified is regenerated,
/// never loaded.
///
/// # Errors
///
/// [`JournalError`] if the ledger cannot be opened, replayed, or
/// attached.
pub fn recover(
    engine: &Engine,
    data_dir: &Path,
    options: RecoverOptions,
) -> Result<Recovery, JournalError> {
    std::fs::create_dir_all(data_dir)?;
    let (journal, journal_report) =
        RevocationJournal::open(ledger_path(data_dir), options.journal)?;
    let journal = Arc::new(journal);
    engine.attach_journal(Arc::clone(&journal))?;
    let mut report = RecoveryReport { journal: journal_report, ..Default::default() };
    let snapshots_dir = data_dir.join("snapshots");
    let mut log_paths: Vec<PathBuf> = match std::fs::read_dir(&snapshots_dir) {
        Ok(dir) => dir
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|path| path.extension().is_some_and(|ext| ext == "cslog"))
            .collect(),
        Err(_) => Vec::new(),
    };
    log_paths.sort();
    for path in log_paths {
        let recovered = SnapshotLog::create_or_open(&path).and_then(|(_, segments)| {
            let Some(tenant) = segments_tenant(&segments).map(str::to_owned) else {
                return Ok(None);
            };
            merge_segments(&tenant, &segments).map(|entries| Some((tenant, entries)))
        });
        match recovered {
            Ok(Some((tenant, entries))) => {
                let warm =
                    engine.store().import_entries(&tenant, entries, &engine.revoked(&tenant)?);
                report.tenants.push((tenant, warm));
            }
            Ok(None) => {}
            Err(_) => {
                // Never load what cannot be verified; set the file
                // aside so the daemon starts this tenant's log fresh.
                let _ = std::fs::rename(&path, path.with_extension("cslog.corrupt"));
                report.corrupt_logs += 1;
            }
        }
    }
    Ok(Recovery { journal, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::decode_snapshot;
    use conseca_core::{Policy, PolicyEntry, TrustedContext};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp_dir(name: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "conseca-snaplog-{}-{}-{name}",
            std::process::id(),
            seq
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    struct Cleanup(PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn ctx() -> TrustedContext {
        TrustedContext::for_user("alice")
    }

    fn policy(task: &str, method: &str) -> Policy {
        let mut p = Policy::new(task);
        p.set(method, PolicyEntry::deny("locked down"));
        p
    }

    fn install(engine: &Engine, tenant: &str, task: &str, method: &str) -> u64 {
        engine.install(tenant, task, &ctx(), &policy(task, method)).unwrap().fingerprint()
    }

    #[test]
    fn deltas_and_fulls_replay_into_the_live_projection() {
        let dir = tmp_dir("replay");
        let _cleanup = Cleanup(dir.clone());
        let engine = Engine::default();
        install(&engine, "acme", "triage", "mail.read");
        let full = engine.store().export_snapshot("acme").unwrap();
        let path = tenant_log_path(&dir, "acme");
        {
            let (mut log, existing) = SnapshotLog::create_or_open(&path).unwrap();
            assert!(existing.is_empty());
            log.rewrite_full(&full.bytes).unwrap();
            install(&engine, "acme", "summarise", "docs.read");
            let delta = engine.store().export_snapshot_since("acme", full.max_generation).unwrap();
            assert_eq!(delta.entries, 1, "the delta must carry only the new install");
            log.append_delta(&delta.bytes).unwrap();
            assert_eq!(log.segments(), 2);
        }
        let (_, segments) = SnapshotLog::create_or_open(&path).unwrap();
        assert_eq!(segments.len(), 2);
        assert_eq!(segments_tenant(&segments), Some("acme"));
        let merged = merge_segments("acme", &segments).unwrap();
        assert_eq!(merged.len(), 2, "full + delta must merge to both installs");
    }

    #[test]
    fn a_flush_marker_discards_earlier_segments() {
        let dir = tmp_dir("flush");
        let _cleanup = Cleanup(dir.clone());
        let engine = Engine::default();
        install(&engine, "acme", "triage", "mail.read");
        let full = engine.store().export_snapshot("acme").unwrap();
        let path = tenant_log_path(&dir, "acme");
        let (mut log, _) = SnapshotLog::create_or_open(&path).unwrap();
        log.rewrite_full(&full.bytes).unwrap();
        log.append_flush().unwrap();
        let (_, segments) = SnapshotLog::create_or_open(&path).unwrap();
        let merged = merge_segments("acme", &segments).unwrap();
        assert!(merged.is_empty(), "flush must wipe the replayed view");
        // A delta after the flush is visible again.
        let (mut log, _) = SnapshotLog::create_or_open(&path).unwrap();
        log.append_delta(&full.bytes).unwrap();
        let (_, segments) = SnapshotLog::create_or_open(&path).unwrap();
        assert_eq!(merge_segments("acme", &segments).unwrap().len(), 1);
    }

    #[test]
    fn a_torn_tail_is_truncated_and_a_corrupt_segment_is_hard() {
        let dir = tmp_dir("torn");
        let _cleanup = Cleanup(dir.clone());
        let engine = Engine::default();
        install(&engine, "acme", "triage", "mail.read");
        let full = engine.store().export_snapshot("acme").unwrap();
        let path = tenant_log_path(&dir, "acme");
        {
            let (mut log, _) = SnapshotLog::create_or_open(&path).unwrap();
            log.rewrite_full(&full.bytes).unwrap();
            log.append_flush().unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        // Torn tail: cut into the trailing flush segment.
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let (_, segments) = SnapshotLog::create_or_open(&path).unwrap();
        assert_eq!(segments.len(), 1, "torn flush marker must be dropped");
        assert!(matches!(segments[0], LogSegment::Full(_)));
        // Interior corruption: flip a byte inside the full segment's
        // nested snapshot blob.
        let mut corrupt = bytes.clone();
        corrupt[HEADER_LEN + 40] ^= 0x01;
        std::fs::write(&path, &corrupt).unwrap();
        assert!(SnapshotLog::create_or_open(&path).is_err());
        // A resealed outer checksum must still fail on the nested blob:
        // recompute the segment framing over the tampered body.
        let seg_start = HEADER_LEN;
        let len = u32::from_be_bytes(corrupt[seg_start..seg_start + 4].try_into().unwrap());
        let body_start = seg_start + 4;
        let body_end = body_start + len as usize;
        let reseal = segment_checksum(len, &corrupt[body_start..body_end]);
        corrupt[body_end..body_end + 8].copy_from_slice(&reseal.to_be_bytes());
        std::fs::write(&path, &corrupt).unwrap();
        match SnapshotLog::create_or_open(&path) {
            Err(SnapshotLogError::BadSnapshot { .. }) => {}
            other => panic!("resealed tamper must fail the nested trust boundary: {other:?}"),
        }
    }

    #[test]
    fn strict_decode_rejects_truncation_skew_and_oversized_segments() {
        let dir = tmp_dir("strict");
        let _cleanup = Cleanup(dir.clone());
        let engine = Engine::default();
        install(&engine, "acme", "triage", "mail.read");
        let full = engine.store().export_snapshot("acme").unwrap();
        let path = tenant_log_path(&dir, "acme");
        let (mut log, _) = SnapshotLog::create_or_open(&path).unwrap();
        log.rewrite_full(&full.bytes).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(decode_snapshot_log(&bytes).unwrap().len(), 1);
        for cut in 1..(bytes.len() - HEADER_LEN).min(64) {
            assert!(
                decode_snapshot_log(&bytes[..bytes.len() - cut]).is_err(),
                "strict decode must reject a {cut}-byte truncation"
            );
        }
        let mut skewed = bytes.clone();
        skewed[9] = 0x41;
        assert!(matches!(
            decode_snapshot_log(&skewed),
            Err(SnapshotLogError::FormatSkew { found: 0x41, .. })
        ));
        let mut huge = bytes[..HEADER_LEN].to_vec();
        huge.extend_from_slice(&(MAX_SEGMENT_LEN + 1).to_be_bytes());
        huge.extend_from_slice(&[0u8; 16]);
        assert!(matches!(
            decode_snapshot_log(&huge),
            Err(SnapshotLogError::SegmentTooLarge { .. })
        ));
    }

    #[test]
    fn recovery_replays_ledger_then_snapshots_and_never_resurrects() {
        let dir = tmp_dir("recover");
        let _cleanup = Cleanup(dir.clone());
        // A server's lifetime before the crash: two installs, one
        // revocation, both recorded durably. A revoke issued before
        // recovery attaches the durable journal is copied into it.
        let engine = Engine::default();
        let fp_triage = install(&engine, "acme", "triage", "mail.read");
        let fp_summarise = install(&engine, "acme", "summarise", "docs.read");
        engine.revoke_fingerprint("acme", 0xdead).unwrap();
        let booted = recover(&engine, &dir, RecoverOptions::default()).unwrap();
        assert!(
            booted.journal.revoked_snapshot("acme").unwrap().contains(&0xdead),
            "in-memory revokes carry over"
        );
        let full = engine.store().export_snapshot("acme").unwrap();
        let (mut log, _) = SnapshotLog::create_or_open(tenant_log_path(&dir, "acme")).unwrap();
        log.rewrite_full(&full.bytes).unwrap();
        // The revocation lands AFTER the snapshot tick — the exact
        // crash window the durable ledger exists for.
        engine.revoke_fingerprint("acme", fp_triage).unwrap();
        drop((booted, log, engine));

        // Crash. Restart from disk alone.
        let fresh = Engine::default();
        let recovery = recover(&fresh, &dir, RecoverOptions::default()).unwrap();
        assert_eq!(recovery.report.journal.revoked, 2);
        assert_eq!(recovery.report.corrupt_logs, 0);
        assert_eq!(recovery.report.installed(), 1, "only the unrevoked policy restores");
        assert_eq!(recovery.report.skipped_revoked(), 1, "the revoked one stays dead");
        assert!(recovery.journal.revoked_snapshot("acme").unwrap().contains(&fp_triage));
        // The restored store serves the live policy and not the dead one.
        let restored = fresh.store().export_snapshot("acme").unwrap();
        let snapshot = decode_snapshot(&restored.bytes).unwrap();
        assert_eq!(snapshot.entries.len(), 1);
        assert_eq!(snapshot.entries[0].source_fp, fp_summarise);
    }

    #[test]
    fn recovery_sets_aside_a_corrupt_log_and_starts_cold() {
        let dir = tmp_dir("corrupt-log");
        let _cleanup = Cleanup(dir.clone());
        let engine = Engine::default();
        install(&engine, "acme", "triage", "mail.read");
        let full = engine.store().export_snapshot("acme").unwrap();
        let path = tenant_log_path(&dir, "acme");
        let (mut log, _) = SnapshotLog::create_or_open(&path).unwrap();
        log.rewrite_full(&full.bytes).unwrap();
        drop(log);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let fresh = Engine::default();
        let recovery = recover(&fresh, &dir, RecoverOptions::default()).unwrap();
        assert_eq!(recovery.report.corrupt_logs, 1);
        assert!(recovery.report.tenants.is_empty(), "nothing unverifiable may load");
        assert!(!path.exists(), "the corrupt log must be set aside");
        assert!(path.with_extension("cslog.corrupt").exists());
    }

    #[test]
    fn recovery_fails_hard_when_the_ledger_is_corrupt() {
        let dir = tmp_dir("bad-ledger");
        let _cleanup = Cleanup(dir.clone());
        let (journal, _) =
            RevocationJournal::open(ledger_path(&dir), JournalOptions::default()).unwrap();
        journal.record_revoke("acme", 7).unwrap();
        drop(journal);
        let path = ledger_path(&dir);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() - 10;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let fresh = Engine::default();
        assert!(
            recover(&fresh, &dir, RecoverOptions::default()).is_err(),
            "recovery must refuse to run against unverifiable revocation state"
        );
    }
}
