//! Crash recovery for a data directory: where the revocation journal
//! and the snapshot logs live, and the boot path that replays them.
//!
//! [`recover`] opens the revocation journal, attaches it to the engine,
//! merges every tenant's snapshot log into its live projection, gates
//! each entry on the replayed revocation set, and re-compiles from
//! verified source — the `load ledger → load snapshots → re-key,
//! re-compile, never resurrect` sequence. Recovery is fail-closed at
//! every layer: a ledger that cannot be verified aborts recovery
//! entirely (revocation state must never be guessed at), and a snapshot
//! log that cannot be verified is set aside and its tenant starts cold
//! (a missing policy regenerates; a corrupt one must never load).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use conseca_core::fnv1a;

use crate::engine::Engine;
use crate::journal::{JournalError, JournalOptions, JournalReplayReport, RevocationJournal};
use crate::persist::WarmStartReport;
use crate::snaplog::{merge_segments, segments_tenant, SnapshotLog};

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
/// never loaded. `journal` tunes the ledger as
/// [`RevocationJournal::open`] does.
///
/// # Errors
///
/// [`JournalError`] if the ledger cannot be opened, replayed, or
/// attached.
pub fn recover(
    engine: &Engine,
    data_dir: &Path,
    journal: JournalOptions,
) -> Result<Recovery, JournalError> {
    std::fs::create_dir_all(data_dir)?;
    let (journal, journal_report) = RevocationJournal::open(ledger_path(data_dir), journal)?;
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
