//! Incremental, append-only snapshot logs.
//!
//! A [`SnapshotLog`] is the durable form of one tenant's policy store,
//! kept in the lifecycle daemon's data directory. Instead of rewriting a
//! full snapshot on every change, the daemon appends *delta* segments —
//! snapshots of only the entries installed since the last tick's
//! generation watermark — and periodically compacts them into a single
//! *full* segment. A `Flush` marker records that the tenant's store was
//! emptied, so replay does not resurrect pre-flush entries.
//! [`recover`](crate::recover) merges every tenant's log at boot.
//!
//! # Log format (version 1)
//!
//! The log is a record file (`docs/persistence.md` §10 and §12), like
//! the revocation journal, headed by [`SNAPSHOT_LOG_MAGIC`] and
//! [`SNAPSHOT_LOG_VERSION`], with one segment of at most
//! [`MAX_SEGMENT_LEN`] bytes per record. A segment body is:
//!
//! ```text
//! kind       u8       1 = full, 2 = delta, 3 = flush
//! snapshot   bytes    (kinds 1 and 2) a complete snapshot-v1 blob,
//!                     verified by decode_snapshot on replay
//! ```
//!
//! Nested snapshot blobs pass the full snapshot-v1 trust boundary
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
use std::path::{Path, PathBuf};

use crate::journal::JournalError;
use crate::persist::{decode_snapshot, SnapshotEntry, SnapshotError};
use crate::record::{Layout, RecordFile};

/// First bytes of every snapshot log file.
pub const SNAPSHOT_LOG_MAGIC: [u8; 8] = *b"CSNPLOG\x01";

/// Version of the log segment framing. Bumped for any layout change;
/// replay refuses logs from other versions.
pub const SNAPSHOT_LOG_VERSION: u16 = 1;

/// Largest segment body replay will allocate for — comfortably above
/// any real tenant snapshot, far below anything a bit-flipped length
/// field could ask for.
pub const MAX_SEGMENT_LEN: u32 = 1 << 26;

pub(crate) const LAYOUT: Layout =
    Layout { magic: SNAPSHOT_LOG_MAGIC, version: SNAPSHOT_LOG_VERSION, max_len: MAX_SEGMENT_LEN };

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
    /// The record file itself failed: I/O, header, framing, length
    /// cap, or a complete segment that failed its checksum or carries
    /// an unknown kind ([`JournalError::CorruptRecord`]).
    Framing(JournalError),
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
            SnapshotLogError::Framing(e) => write!(f, "snapshot log: {e}"),
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

impl From<JournalError> for SnapshotLogError {
    fn from(e: JournalError) -> Self {
        SnapshotLogError::Framing(e)
    }
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
    LAYOUT.decode(bytes, decode_segment)
}

fn decode_segment(offset: usize, body: &[u8]) -> Result<LogSegment, SnapshotLogError> {
    let snapshot = |blob| {
        decode_snapshot(blob).map_err(|error| SnapshotLogError::BadSnapshot { offset, error })
    };
    match body.split_first() {
        Some((&KIND_FULL, blob)) => Ok(LogSegment::Full(snapshot(blob)?)),
        Some((&KIND_DELTA, blob)) => Ok(LogSegment::Delta(snapshot(blob)?)),
        Some((&KIND_FLUSH, [])) => Ok(LogSegment::Flush),
        _ => Err(JournalError::CorruptRecord { offset }.into()),
    }
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
    file: RecordFile,
    segments: u64,
}

impl SnapshotLog {
    /// Opens (or creates) the log at `path`, replaying what is already
    /// there. A torn tail segment is cut off (the tick that wrote it
    /// never completed), as is a partial header (a crash mid-create);
    /// any other damage is a hard error — the caller sets the file
    /// aside and starts the tenant cold.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotLogError`].
    pub fn create_or_open(
        path: impl Into<PathBuf>,
    ) -> Result<(Self, Vec<LogSegment>), SnapshotLogError> {
        let (file, segments, _repaired) = RecordFile::open(path.into(), LAYOUT, decode_segment)?;
        let count = segments.len() as u64;
        Ok((SnapshotLog { file, segments: count }, segments))
    }

    /// The backing file.
    pub fn path(&self) -> &Path {
        self.file.path()
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
    /// [`SnapshotLogError::Framing`].
    pub fn append_delta(&mut self, snapshot_bytes: &[u8]) -> Result<(), SnapshotLogError> {
        self.append(&segment_body(KIND_DELTA, snapshot_bytes))
    }

    /// Appends a flush marker: replay discards everything before it.
    ///
    /// # Errors
    ///
    /// [`SnapshotLogError::Framing`].
    pub fn append_flush(&mut self) -> Result<(), SnapshotLogError> {
        self.append(&[KIND_FLUSH])
    }

    fn append(&mut self, body: &[u8]) -> Result<(), SnapshotLogError> {
        self.file.append(body)?;
        self.segments += 1;
        Ok(())
    }

    /// Compacts the log down to one full segment carrying
    /// `snapshot_bytes`, atomically: on error the file is the original
    /// or the compacted one, never a mix.
    ///
    /// # Errors
    ///
    /// [`SnapshotLogError::Framing`].
    pub fn rewrite_full(&mut self, snapshot_bytes: &[u8]) -> Result<(), SnapshotLogError> {
        self.file.rewrite([segment_body(KIND_FULL, snapshot_bytes).as_slice()])?;
        self.segments = 1;
        Ok(())
    }
}

fn segment_body(kind: u8, blob: &[u8]) -> Vec<u8> {
    let mut body = Vec::with_capacity(1 + blob.len());
    body.push(kind);
    body.extend_from_slice(blob);
    body
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::journal::{JournalOptions, RevocationJournal};
    use crate::record::{checksum, HEADER_LEN};
    use crate::recovery::{ledger_path, recover, tenant_log_path};
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
        let reseal = checksum(len, &corrupt[body_start..body_end]);
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
            Err(SnapshotLogError::Framing(JournalError::FormatSkew { found: 0x41, .. }))
        ));
        let mut huge = bytes[..HEADER_LEN].to_vec();
        huge.extend_from_slice(&(MAX_SEGMENT_LEN + 1).to_be_bytes());
        huge.extend_from_slice(&[0u8; 16]);
        assert!(matches!(
            decode_snapshot_log(&huge),
            Err(SnapshotLogError::Framing(JournalError::RecordTooLarge { .. }))
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
        let booted = recover(&engine, &dir, JournalOptions::default()).unwrap();
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
        let recovery = recover(&fresh, &dir, JournalOptions::default()).unwrap();
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
        let recovery = recover(&fresh, &dir, JournalOptions::default()).unwrap();
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
            recover(&fresh, &dir, JournalOptions::default()).is_err(),
            "recovery must refuse to run against unverifiable revocation state"
        );
    }

    #[test]
    fn recovery_boots_from_an_empty_ledger_and_an_empty_log() {
        // A crash between creating a file and syncing its header leaves
        // it empty: no record was ever acknowledged, so it is a torn
        // tail, not corruption.
        let dir = tmp_dir("empty");
        let _cleanup = Cleanup(dir.clone());
        let log = tenant_log_path(&dir, "acme");
        std::fs::create_dir_all(log.parent().unwrap()).unwrap();
        std::fs::write(ledger_path(&dir), b"").unwrap();
        std::fs::write(&log, b"").unwrap();
        let engine = Engine::default();
        let recovery = recover(&engine, &dir, JournalOptions::default()).unwrap();
        assert_eq!(recovery.report.journal.revoked, 0);
        assert!(recovery.report.journal.repaired_torn_tail);
        assert_eq!(recovery.report.corrupt_logs, 0, "an empty log is not set aside");
        assert!(recovery.report.tenants.is_empty());
        // Both files now carry a header and take appends.
        engine.revoke_fingerprint("acme", 7).unwrap();
        let (mut opened, segments) = SnapshotLog::create_or_open(&log).unwrap();
        assert!(segments.is_empty());
        opened.append_flush().unwrap();
        drop((recovery, opened, engine));
        let recovery = recover(&Engine::default(), &dir, JournalOptions::default()).unwrap();
        assert_eq!(recovery.report.journal.revoked, 1);
        assert!(!recovery.report.journal.repaired_torn_tail);
        assert_eq!(recovery.report.corrupt_logs, 0);
    }
}
