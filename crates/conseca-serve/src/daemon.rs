//! The server-side lifecycle daemon: crash recovery, scheduled drift
//! sweeps, and periodic incremental snapshots.
//!
//! Before this module, policy lifecycle was client-driven: drift sweeps
//! ran wherever the embedding application chose to call
//! [`ReloadCoordinator::sweep`], snapshots were exported when a client
//! sent `Request::Snapshot`, and the engine's revocation journal lived
//! in memory — a crash forgot every wire-issued revocation. The
//! [`LifecycleDaemon`] moves all three server-side:
//!
//! - **Crash recovery at startup**: [`conseca_engine::recover`] replays
//!   the durable revocation journal (fail-closed — an unverifiable
//!   ledger aborts startup), attaches it to the engine so every later
//!   revoke, install and restore is journaled durably, merges each
//!   tenant's snapshot log, and warm-starts the engine, re-compiling
//!   every entry from verified source and never resurrecting a revoked
//!   fingerprint.
//! - **Sweep tick**: a scheduled thread runs the coordinator's drift
//!   sweep with the configured context resolver and policy regenerator,
//!   so drift detection no longer trusts clients to call in. Reloads
//!   and revocations the sweep performs go through the engine and
//!   therefore fan out over the existing push-invalidation channel —
//!   subscribed caches stay sound with no new wire machinery.
//! - **Snapshot tick**: periodically exports each registered tenant's
//!   store — incrementally, only entries installed since the last
//!   tick's generation watermark — and appends the delta to the
//!   tenant's append-only snapshot log, compacting to a full segment on
//!   a configured cadence.
//!
//! # Flush linearization
//!
//! A `Request::Flush` races an in-flight snapshot export: the export
//! may have cut the store *before* the flush emptied it, and writing
//! that export afterwards would resurrect flushed entries on the next
//! recovery. The daemon closes the race with a per-tenant flush epoch:
//! the engine's `Flushed` invalidation (observed via the same listener
//! channel the push fan-out uses) appends a flush marker to the log and
//! bumps the epoch under the tenant-log lock, and every export
//! re-checks the epoch it started under before writing — a stale
//! export is discarded, counted in
//! [`DaemonCounters::snapshot_skips`]. See `docs/serving.md`.

use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, Weak};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use conseca_core::{CountingSink, Policy, TrustedContext};
use conseca_engine::{
    recover, tenant_log_path, Engine, Invalidation, JournalOptions, RecoveryReport,
    ReloadCoordinator, RevocationJournal, SnapshotLog, SweepReport,
};

/// Resolves (tenant, task) to its current trusted context, `None` when
/// the context no longer exists (the sweep then revokes the orphan).
pub type ContextResolver = Arc<dyn Fn(&str, &str) -> Option<TrustedContext> + Send + Sync>;

/// Regenerates the policy for (tenant, task) against a current context.
pub type PolicyRegenerator = Arc<dyn Fn(&str, &str, &TrustedContext) -> Policy + Send + Sync>;

/// Lifecycle daemon configuration. Built with [`DaemonConfig::at`];
/// there is deliberately no `Default` — a daemon without a data
/// directory is not a daemon.
#[derive(Clone)]
pub struct DaemonConfig {
    /// Directory holding the revocation journal (`ledger.csj`) and the
    /// per-tenant snapshot logs (`snapshots/*.cslog`). Created on
    /// startup if absent.
    pub data_dir: PathBuf,
    /// How often the drift sweep runs; `None` disables the scheduled
    /// sweep (explicit [`LifecycleDaemon::sweep_now`] still works).
    pub sweep_interval: Option<Duration>,
    /// How often the snapshot tick runs; `None` disables it (explicit
    /// [`LifecycleDaemon::snapshot_now`] still works).
    pub snapshot_interval: Option<Duration>,
    /// Revocation journal tuning (resident cap + compaction cadence) —
    /// the resident cap is what bounds ledger memory under a revoke
    /// storm.
    pub journal: JournalOptions,
    /// Delta segments between full-snapshot compactions of a tenant's
    /// log.
    pub full_snapshot_every: u32,
    /// Context resolver for the sweep tick; without one (and a
    /// regenerator) sweeps are skipped.
    pub resolver: Option<ContextResolver>,
    /// Policy regenerator for the sweep tick.
    pub regenerator: Option<PolicyRegenerator>,
}

impl fmt::Debug for DaemonConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DaemonConfig")
            .field("data_dir", &self.data_dir)
            .field("sweep_interval", &self.sweep_interval)
            .field("snapshot_interval", &self.snapshot_interval)
            .field("journal", &self.journal)
            .field("full_snapshot_every", &self.full_snapshot_every)
            .field("resolver", &self.resolver.as_ref().map(|_| "…"))
            .field("regenerator", &self.regenerator.as_ref().map(|_| "…"))
            .finish()
    }
}

impl DaemonConfig {
    /// A daemon rooted at `data_dir` with scheduled ticks disabled —
    /// enable them with the builder methods.
    pub fn at(data_dir: impl Into<PathBuf>) -> Self {
        DaemonConfig {
            data_dir: data_dir.into(),
            sweep_interval: None,
            snapshot_interval: None,
            journal: JournalOptions::default(),
            full_snapshot_every: 8,
            resolver: None,
            regenerator: None,
        }
    }

    /// Enables the scheduled drift sweep.
    pub fn sweep_every(mut self, interval: Duration) -> Self {
        self.sweep_interval = Some(interval);
        self
    }

    /// Enables the scheduled snapshot tick.
    pub fn snapshot_every(mut self, interval: Duration) -> Self {
        self.snapshot_interval = Some(interval);
        self
    }

    /// Sets the sweep tick's context resolver.
    pub fn resolve_with(mut self, resolver: ContextResolver) -> Self {
        self.resolver = Some(resolver);
        self
    }

    /// Sets the sweep tick's policy regenerator.
    pub fn regenerate_with(mut self, regenerator: PolicyRegenerator) -> Self {
        self.regenerator = Some(regenerator);
        self
    }

    /// Overrides the revocation journal tuning.
    pub fn journal_options(mut self, options: JournalOptions) -> Self {
        self.journal = options;
        self
    }

    /// Overrides how many delta segments separate full-snapshot
    /// compactions of a tenant's log. `0` makes every snapshot tick a
    /// full rewrite — no deltas at all, which the conformance harness
    /// uses to make the durable projection deterministic per tick.
    pub fn full_snapshot_every(mut self, deltas: u32) -> Self {
        self.full_snapshot_every = deltas;
        self
    }
}

/// Point-in-time daemon counters, served to clients in the v6
/// `StatsOk` extension.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DaemonCounters {
    /// Sweep ticks completed.
    pub sweeps: u64,
    /// Keys sweeps reloaded after drift.
    pub swept_reloaded: u64,
    /// Keys sweeps revoked as orphans (context no longer resolvable).
    pub swept_orphaned: u64,
    /// Snapshot ticks completed.
    pub snapshot_ticks: u64,
    /// Log segments written (deltas + full rewrites + flush markers).
    pub segments_written: u64,
    /// Exports discarded because a flush landed mid-export (the
    /// linearization check).
    pub snapshot_skips: u64,
    /// Flush markers appended to snapshot logs.
    pub flush_markers: u64,
    /// Revocation journal records appended over the journal's lifetime.
    pub journal_records: u64,
    /// Revocation journal compactions run.
    pub journal_compactions: u64,
    /// Entries re-installed by crash recovery at startup.
    pub recovered_installed: u64,
    /// Entries crash recovery refused because their fingerprint was
    /// revoked before the crash.
    pub recovered_skipped_revoked: u64,
    /// Persistence I/O failures absorbed (journal appends and compactions, log writes).
    pub io_errors: u64,
}

#[derive(Default)]
struct Counters {
    sweeps: AtomicU64,
    swept_reloaded: AtomicU64,
    swept_orphaned: AtomicU64,
    snapshot_ticks: AtomicU64,
    segments_written: AtomicU64,
    snapshot_skips: AtomicU64,
    flush_markers: AtomicU64,
    io_errors: AtomicU64,
}

/// Durable state of one registered tenant, serialised by its own lock
/// so exports, flush markers, and ticks for different tenants never
/// contend.
struct TenantLogState {
    log: Option<SnapshotLog>,
    /// Bumped (under this lock) whenever a flush marker is appended; an
    /// export started under an older epoch must be discarded.
    flush_epoch: u64,
    /// Highest install generation the log is known to cover; the next
    /// delta exports strictly newer entries.
    watermark: u64,
    /// Whether the next export must be a full rewrite. True initially —
    /// store generations restart from 1 after recovery, so mixing
    /// pre-crash watermarks with post-crash generations would silently
    /// skip entries; a full segment re-anchors the log in the new
    /// generation space.
    needs_full: bool,
    /// Delta segments appended since the last full rewrite.
    deltas_since_full: u32,
}

struct TenantLog {
    tenant: Box<str>,
    path: PathBuf,
    state: Mutex<TenantLogState>,
}

impl TenantLog {
    fn lock(&self) -> std::sync::MutexGuard<'_, TenantLogState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// What an export decided under the tenant-log lock before releasing it
/// for the (lock-free) engine export.
struct ExportCut {
    flush_epoch: u64,
    watermark: u64,
    full: bool,
}

/// The lifecycle daemon. Created with [`LifecycleDaemon::start`]
/// (which runs crash recovery), shared in an `Arc` with the server;
/// [`stop`](Self::stop) halts the ticker thread, which otherwise runs
/// for as long as the process does: it holds an `Arc` of the daemon.
/// Stopping never writes a parting snapshot — a stop is
/// indistinguishable from a crash on purpose, so recovery is exercised
/// by every restart.
pub struct LifecycleDaemon {
    engine: Arc<Engine>,
    config: DaemonConfig,
    journal: Arc<RevocationJournal>,
    coordinator: ReloadCoordinator,
    recovery: RecoveryReport,
    tenants: Mutex<HashMap<Box<str>, Arc<TenantLog>>>,
    counters: Counters,
    /// The running ticker: the sender whose drop stops it, and its
    /// thread.
    ticker: Mutex<Option<(mpsc::Sender<()>, JoinHandle<()>)>>,
}

impl fmt::Debug for LifecycleDaemon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LifecycleDaemon").field("config", &self.config).finish_non_exhaustive()
    }
}

impl LifecycleDaemon {
    /// Runs crash recovery for the configured data directory, then
    /// starts the tick thread (when any interval is configured).
    ///
    /// # Errors
    ///
    /// [`conseca_engine::JournalError`] if the revocation journal
    /// cannot be opened or verified — the daemon refuses to start
    /// against revocation state it cannot trust.
    pub fn start(
        engine: Arc<Engine>,
        config: DaemonConfig,
    ) -> Result<Arc<Self>, conseca_engine::JournalError> {
        let recovery = recover(&engine, &config.data_dir, config.journal)?;
        let daemon = Arc::new(LifecycleDaemon {
            engine: Arc::clone(&engine),
            config,
            journal: recovery.journal,
            coordinator: ReloadCoordinator::new(Arc::clone(&engine)),
            recovery: recovery.report,
            tenants: Mutex::new(HashMap::new()),
            counters: Counters::default(),
            ticker: Mutex::new(None),
        });
        // Register every recovered tenant so the snapshot tick keeps
        // covering it even before new wire traffic names it.
        let recovered: Vec<String> =
            daemon.recovery.tenants.iter().map(|(tenant, _)| tenant.clone()).collect();
        for tenant in recovered {
            daemon.register_tenant(&tenant);
        }
        // Observe flushes and revokes through the engine's invalidation
        // channel — the same ordering the push fan-out sees, fired by
        // whichever thread mutated the engine. A revoke retires the
        // fingerprint's tracked keys so a later sweep does not
        // regenerate the dead policy. Weak, so a dropped daemon does not
        // linger behind the engine's listener list.
        let weak: Weak<LifecycleDaemon> = Arc::downgrade(&daemon);
        engine.add_invalidation_listener(Box::new(move |event| {
            let Some(daemon) = weak.upgrade() else { return };
            match event {
                Invalidation::Flushed { tenant } => daemon.on_flushed(tenant),
                Invalidation::Revoked { tenant, fingerprint } => {
                    daemon.coordinator.retire_fingerprint(tenant, *fingerprint);
                }
                Invalidation::Reloaded { .. } => {}
            }
        }));
        if daemon.config.sweep_interval.is_some() || daemon.config.snapshot_interval.is_some() {
            let (stop, stopped) = mpsc::channel();
            let tick = Arc::clone(&daemon);
            let handle = thread::spawn(move || tick.run_ticker(stopped));
            *daemon.ticker.lock().unwrap_or_else(|e| e.into_inner()) = Some((stop, handle));
        }
        Ok(daemon)
    }

    /// The durable revocation journal, attached to the engine by
    /// recovery.
    pub fn journal(&self) -> &Arc<RevocationJournal> {
        &self.journal
    }

    /// What crash recovery found at startup.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// The engine this daemon tends.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Point-in-time counters.
    pub fn counters(&self) -> DaemonCounters {
        DaemonCounters {
            sweeps: self.counters.sweeps.load(Ordering::Relaxed),
            swept_reloaded: self.counters.swept_reloaded.load(Ordering::Relaxed),
            swept_orphaned: self.counters.swept_orphaned.load(Ordering::Relaxed),
            snapshot_ticks: self.counters.snapshot_ticks.load(Ordering::Relaxed),
            segments_written: self.counters.segments_written.load(Ordering::Relaxed),
            snapshot_skips: self.counters.snapshot_skips.load(Ordering::Relaxed),
            flush_markers: self.counters.flush_markers.load(Ordering::Relaxed),
            journal_records: self.journal.appended_total(),
            journal_compactions: self.journal.compactions(),
            recovered_installed: self.recovery.installed() as u64,
            recovered_skipped_revoked: self.recovery.skipped_revoked() as u64,
            io_errors: self.counters.io_errors.load(Ordering::Relaxed) + self.journal.io_errors(),
        }
    }

    /// Called by the dispatcher after an `Install`/`Reload` lands:
    /// tracks the key for drift sweeps and registers the tenant for
    /// snapshot ticks.
    pub fn on_installed(
        &self,
        tenant: &str,
        task: &str,
        context: &TrustedContext,
        fingerprint: u64,
    ) {
        self.coordinator.track(tenant, task, context, fingerprint);
        self.register_tenant(tenant);
    }

    /// Runs one drift sweep now (also what the sweep tick calls).
    /// `None` when no resolver/regenerator is configured. Journal
    /// failures the report counts are already in
    /// [`DaemonCounters::io_errors`] through the journal's own count.
    pub fn sweep_now(&self) -> Option<SweepReport> {
        let resolver = self.config.resolver.as_ref()?;
        let regenerator = self.config.regenerator.as_ref()?;
        let mut sink = CountingSink::default();
        let report = self.coordinator.sweep(
            |tenant, task| resolver(tenant, task),
            |tenant, task, context| regenerator(tenant, task, context),
            &mut sink,
        );
        self.counters.sweeps.fetch_add(1, Ordering::Relaxed);
        self.counters.swept_reloaded.fetch_add(report.reloaded as u64, Ordering::Relaxed);
        self.counters.swept_orphaned.fetch_add(report.orphaned as u64, Ordering::Relaxed);
        Some(report)
    }

    /// Runs one snapshot tick now over every registered tenant (also
    /// what the snapshot tick calls). Returns segments written.
    pub fn snapshot_now(&self) -> u64 {
        let tenants: Vec<Arc<TenantLog>> =
            self.tenants.lock().unwrap_or_else(|e| e.into_inner()).values().cloned().collect();
        let mut written = 0u64;
        for tenant_log in tenants {
            if self.snapshot_tenant(&tenant_log) {
                written += 1;
            }
        }
        self.counters.snapshot_ticks.fetch_add(1, Ordering::Relaxed);
        written
    }

    /// Stops the ticker thread and waits for it to exit. Idempotent. No
    /// final snapshot is written — see the type docs.
    pub fn stop(&self) {
        let ticker = self.ticker.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some((stop, handle)) = ticker {
            // Dropping the only sender wakes the ticker's wait at once.
            drop(stop);
            let _ = handle.join();
        }
    }

    /// Registers `tenant` for snapshot ticks (idempotent). Installs,
    /// reloads and restores all call it, so whatever the store holds is
    /// made durable by the next tick.
    pub(crate) fn register_tenant(&self, tenant: &str) {
        let mut tenants = self.tenants.lock().unwrap_or_else(|e| e.into_inner());
        if !tenants.contains_key(tenant) {
            tenants.insert(
                tenant.into(),
                Arc::new(TenantLog {
                    tenant: tenant.into(),
                    path: tenant_log_path(&self.config.data_dir, tenant),
                    state: Mutex::new(TenantLogState {
                        log: None,
                        flush_epoch: 0,
                        watermark: 0,
                        needs_full: true,
                        deltas_since_full: 0,
                    }),
                }),
            );
        }
    }

    fn lookup_tenant(&self, tenant: &str) -> Option<Arc<TenantLog>> {
        self.tenants.lock().unwrap_or_else(|e| e.into_inner()).get(tenant).cloned()
    }

    /// Opens the tenant's log if it is not open yet. Called under the
    /// tenant-log lock. `false` (counted) when the file cannot be
    /// opened — the tick retries next round.
    fn ensure_log(&self, state: &mut TenantLogState, log: &TenantLog) -> bool {
        if state.log.is_some() {
            return true;
        }
        match SnapshotLog::create_or_open(&log.path) {
            Ok((opened, _)) => {
                state.log = Some(opened);
                true
            }
            Err(_) => {
                self.counters.io_errors.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// The flush half of the linearization: marker append + epoch bump,
    /// atomically under the tenant-log lock.
    fn on_flushed(&self, tenant: &str) {
        let Some(tenant_log) = self.lookup_tenant(tenant) else { return };
        let mut state = tenant_log.lock();
        state.flush_epoch += 1;
        state.watermark = 0;
        if self.ensure_log(&mut state, &tenant_log) {
            match state.log.as_mut().expect("just ensured").append_flush() {
                Ok(()) => {
                    self.counters.flush_markers.fetch_add(1, Ordering::Relaxed);
                    self.counters.segments_written.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    // The marker did not land; force the next export to
                    // be a full rewrite, which repairs the log without
                    // the marker.
                    state.needs_full = true;
                    self.counters.io_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        } else {
            state.needs_full = true;
        }
    }

    /// The export half: cut under the lock, export without it, commit
    /// under it again iff no flush intervened.
    fn snapshot_tenant(&self, tenant_log: &TenantLog) -> bool {
        let cut = {
            let state = tenant_log.lock();
            ExportCut {
                flush_epoch: state.flush_epoch,
                watermark: state.watermark,
                full: state.needs_full
                    || state.deltas_since_full >= self.config.full_snapshot_every,
            }
        };
        // The engine export runs outside the tenant-log lock: it takes
        // the store's shard locks, and holding ours across it would
        // serialise against the flush listener (which the dispatcher
        // calls mid-mutation).
        let after = if cut.full { 0 } else { cut.watermark };
        let exported = self.engine.store().export_snapshot_since(&tenant_log.tenant, after);
        let snapshot = match exported {
            Ok(snapshot) => snapshot,
            Err(_) => {
                self.counters.io_errors.fetch_add(1, Ordering::Relaxed);
                return false;
            }
        };
        self.commit_export(tenant_log, &cut, snapshot)
    }

    /// Commit step, separated so the Flush race has a deterministic
    /// test: returns `false` (and writes nothing) when the epoch moved
    /// since the cut.
    fn commit_export(
        &self,
        tenant_log: &TenantLog,
        cut: &ExportCut,
        snapshot: conseca_engine::TenantSnapshot,
    ) -> bool {
        let mut state = tenant_log.lock();
        if state.flush_epoch != cut.flush_epoch {
            // A flush landed between the cut and now: this export may
            // contain pre-flush entries and writing it after the flush
            // marker would resurrect them. Discard; the next tick
            // exports the post-flush store.
            self.counters.snapshot_skips.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        if !cut.full && snapshot.entries == 0 {
            // Nothing new since the watermark; nothing to write.
            return false;
        }
        if !self.ensure_log(&mut state, tenant_log) {
            return false;
        }
        let log = state.log.as_mut().expect("just ensured");
        let result = if cut.full {
            log.rewrite_full(&snapshot.bytes)
        } else {
            log.append_delta(&snapshot.bytes)
        };
        match result {
            Ok(()) => {
                state.watermark = snapshot.max_generation;
                if cut.full {
                    state.needs_full = false;
                    state.deltas_since_full = 0;
                } else {
                    state.deltas_since_full += 1;
                }
                self.counters.segments_written.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(_) => {
                // The log may now hold a torn tail (open truncates it);
                // re-anchor with a full rewrite next tick.
                state.needs_full = true;
                self.counters.io_errors.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Runs each configured tick when it falls due, until the sender
    /// held by [`stop`](Self::stop) is dropped.
    fn run_ticker(self: Arc<Self>, stopped: mpsc::Receiver<()>) {
        let start = Instant::now();
        let mut next_sweep = self.config.sweep_interval.map(|i| start + i);
        let mut next_snapshot = self.config.snapshot_interval.map(|i| start + i);
        loop {
            let Some(next) = next_sweep.into_iter().chain(next_snapshot).min() else { return };
            // Nothing is ever sent: only the sender's drop ends the wait
            // early.
            let wait = next.saturating_duration_since(Instant::now());
            if stopped.recv_timeout(wait) != Err(RecvTimeoutError::Timeout) {
                return;
            }
            let now = Instant::now();
            if let (Some(due), Some(interval)) = (next_sweep, self.config.sweep_interval) {
                if now >= due {
                    self.sweep_now();
                    next_sweep = Some(due.max(now) + interval);
                }
            }
            if let (Some(due), Some(interval)) = (next_snapshot, self.config.snapshot_interval) {
                if now >= due {
                    self.snapshot_now();
                    next_snapshot = Some(due.max(now) + interval);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conseca_core::PolicyEntry;
    use std::sync::atomic::AtomicU64 as TestSeq;

    fn tmp_dir(name: &str) -> PathBuf {
        static SEQ: TestSeq = TestSeq::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "conseca-daemon-{}-{}-{name}",
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

    fn policy(task: &str) -> Policy {
        let mut p = Policy::new(task);
        p.set("send_email", PolicyEntry::deny("no sends"));
        p
    }

    fn install(daemon: &LifecycleDaemon, tenant: &str, task: &str) -> u64 {
        let p = policy(task);
        let fp = daemon.engine().install(tenant, task, &ctx(), &p).unwrap().fingerprint();
        daemon.on_installed(tenant, task, &ctx(), fp);
        fp
    }

    #[test]
    fn a_flush_between_cut_and_commit_discards_the_export() {
        let dir = tmp_dir("flush-race");
        let _cleanup = Cleanup(dir.clone());
        let engine = Arc::new(Engine::default());
        let daemon = LifecycleDaemon::start(Arc::clone(&engine), DaemonConfig::at(&dir)).unwrap();
        install(&daemon, "acme", "triage");

        // Replay the race deterministically: cut the export, then let a
        // flush land (the engine fires the Flushed invalidation, which
        // runs the daemon's marker+epoch-bump listener), then try to
        // commit the stale export.
        let tenant_log = daemon.lookup_tenant("acme").unwrap();
        let cut = {
            let state = tenant_log.lock();
            ExportCut { flush_epoch: state.flush_epoch, watermark: state.watermark, full: true }
        };
        let snapshot = engine.store().export_snapshot("acme").unwrap();
        assert_eq!(snapshot.entries, 1, "the export cut saw the pre-flush store");

        engine.flush_tenant("acme");

        assert!(
            !daemon.commit_export(&tenant_log, &cut, snapshot),
            "a stale export must not be written after a flush"
        );
        assert_eq!(daemon.counters().snapshot_skips, 1);
        assert_eq!(daemon.counters().flush_markers, 1);

        // The next (post-flush) tick writes the truth: an empty store.
        daemon.snapshot_now();
        drop((daemon, engine));
        let fresh = Arc::new(Engine::default());
        let recovered = LifecycleDaemon::start(fresh, DaemonConfig::at(&dir)).unwrap();
        assert_eq!(
            recovered.recovery().installed(),
            0,
            "flushed entries must not reappear after recovery"
        );
    }

    #[test]
    fn commit_without_an_intervening_flush_lands() {
        let dir = tmp_dir("flush-clean");
        let _cleanup = Cleanup(dir.clone());
        let engine = Arc::new(Engine::default());
        let daemon = LifecycleDaemon::start(Arc::clone(&engine), DaemonConfig::at(&dir)).unwrap();
        install(&daemon, "acme", "triage");
        assert_eq!(daemon.snapshot_now(), 1, "one tenant, one segment");
        assert_eq!(daemon.counters().snapshot_skips, 0);

        // Crash + recover: the committed snapshot restores.
        drop((daemon, engine));
        let fresh = Arc::new(Engine::default());
        let recovered = LifecycleDaemon::start(fresh, DaemonConfig::at(&dir)).unwrap();
        assert_eq!(recovered.recovery().installed(), 1);
    }

    #[test]
    fn deltas_only_carry_new_installs_and_fulls_reanchor() {
        let dir = tmp_dir("deltas");
        let _cleanup = Cleanup(dir.clone());
        let engine = Arc::new(Engine::default());
        let daemon = LifecycleDaemon::start(Arc::clone(&engine), DaemonConfig::at(&dir)).unwrap();
        install(&daemon, "acme", "triage");
        daemon.snapshot_now(); // full (first export re-anchors)
        install(&daemon, "acme", "summarise");
        daemon.snapshot_now(); // delta with just the new install
        daemon.snapshot_now(); // nothing new → no segment
        assert_eq!(daemon.counters().segments_written, 2);

        drop((daemon, engine));
        let fresh = Arc::new(Engine::default());
        let recovered = LifecycleDaemon::start(fresh, DaemonConfig::at(&dir)).unwrap();
        assert_eq!(recovered.recovery().installed(), 2, "full + delta must both restore");
        // After recovery the generation space restarted; the first new
        // export must be a full rewrite, not a bogus delta.
        install(&recovered, "acme", "escalate");
        recovered.snapshot_now();
        drop(recovered);
        let again = Arc::new(Engine::default());
        let recovered = LifecycleDaemon::start(again, DaemonConfig::at(&dir)).unwrap();
        assert_eq!(recovered.recovery().installed(), 3);
    }

    #[test]
    fn scheduled_ticks_fire_and_stop_halts_them() {
        let dir = tmp_dir("ticks");
        let _cleanup = Cleanup(dir.clone());
        let engine = Arc::new(Engine::default());
        let config = DaemonConfig::at(&dir)
            .snapshot_every(Duration::from_millis(10))
            .sweep_every(Duration::from_millis(10))
            .resolve_with(Arc::new(|_, _| Some(TrustedContext::for_user("alice"))))
            .regenerate_with(Arc::new(|_, task, _| {
                let mut p = Policy::new(task);
                p.set("send_email", PolicyEntry::deny("no sends"));
                p
            }));
        let daemon = LifecycleDaemon::start(Arc::clone(&engine), config).unwrap();
        install(&daemon, "acme", "triage");
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            let counters = daemon.counters();
            if counters.snapshot_ticks >= 2 && counters.sweeps >= 2 {
                break;
            }
            thread::sleep(Duration::from_millis(5));
        }
        let counters = daemon.counters();
        assert!(counters.snapshot_ticks >= 2, "snapshot tick must fire on schedule");
        assert!(counters.sweeps >= 2, "sweep tick must fire on schedule");
        daemon.stop();
        let after = daemon.counters();
        thread::sleep(Duration::from_millis(40));
        assert_eq!(daemon.counters().snapshot_ticks, after.snapshot_ticks, "stop halts ticks");
    }

    #[test]
    fn sweep_revokes_orphans_durably() {
        let dir = tmp_dir("sweep");
        let _cleanup = Cleanup(dir.clone());
        let engine = Arc::new(Engine::default());
        // A resolver that knows no contexts: every tracked key orphans.
        let config = DaemonConfig::at(&dir)
            .resolve_with(Arc::new(|_, _| None))
            .regenerate_with(Arc::new(|_, task, _| Policy::new(task)));
        let daemon = LifecycleDaemon::start(Arc::clone(&engine), config).unwrap();
        let fp = install(&daemon, "acme", "triage");
        daemon.snapshot_now();
        let report = daemon.sweep_now().unwrap();
        assert_eq!(report.orphaned, 1);
        assert!(
            daemon.journal().revoked_snapshot("acme").unwrap().contains(&fp),
            "sweep revocations are journaled"
        );

        // The orphan stays dead across a crash even though the snapshot
        // log still carries its entry.
        drop((daemon, engine));
        let fresh = Arc::new(Engine::default());
        let recovered = LifecycleDaemon::start(fresh, DaemonConfig::at(&dir)).unwrap();
        assert_eq!(recovered.recovery().skipped_revoked(), 1);
        assert_eq!(recovered.recovery().installed(), 0);
    }
}
