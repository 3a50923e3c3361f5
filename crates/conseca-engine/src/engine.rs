//! The serving façade: compiled policies + sharded store + tenant stats.
//!
//! An [`Engine`] is the one object a multi-tenant deployment shares
//! between its worker threads. It owns the [`PolicyStore`], compiles
//! policies on demand, and keeps per-tenant counters (store hits/misses,
//! checks, allow/deny outcomes) so operators can see which tenant is
//! generating load — and which is tripping denials — without touching the
//! audit stream.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use conseca_core::{Decision, Policy, TrustedContext};
use conseca_shell::ApiCall;
use parking_lot::RwLock;

use crate::compile::CompiledPolicy;
use crate::journal::{JournalError, RevocationJournal};
use crate::store::{EngineKey, PolicyStore, StoreConfig};
use crate::trajectory_compile::TrajectoryState;

/// Live per-tenant counters (atomics; snapshot via [`TenantCounters`]).
#[derive(Debug, Default)]
pub(crate) struct TenantStats {
    hits: AtomicU64,
    misses: AtomicU64,
    checks: AtomicU64,
    allowed: AtomicU64,
    denied: AtomicU64,
    reloads: AtomicU64,
    revoked: AtomicU64,
}

impl TenantStats {
    fn snapshot(&self) -> TenantCounters {
        TenantCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            checks: self.checks.load(Ordering::Relaxed),
            allowed: self.allowed.load(Ordering::Relaxed),
            denied: self.denied.load(Ordering::Relaxed),
            reloads: self.reloads.load(Ordering::Relaxed),
            revoked: self.revoked.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn record_decision(&self, allowed: bool) {
        self.checks.fetch_add(1, Ordering::Relaxed);
        if allowed {
            self.allowed.fetch_add(1, Ordering::Relaxed);
        } else {
            self.denied.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn record_lookup(&self, hit: bool) {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A point-in-time snapshot of one tenant's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantCounters {
    /// Policy-store hits attributed to this tenant.
    pub hits: u64,
    /// Policy-store misses attributed to this tenant.
    pub misses: u64,
    /// Actions checked.
    pub checks: u64,
    /// Actions allowed.
    pub allowed: u64,
    /// Actions denied.
    pub denied: u64,
    /// Policies reloaded (revoke-and-replace on a live key) for this
    /// tenant via [`Engine::reload`].
    pub reloads: u64,
    /// Store snapshots revoked for this tenant via
    /// [`Engine::revoke_fingerprint`] (reload-replaced keys included).
    pub revoked: u64,
}

/// One policy-store invalidation, emitted to registered listeners
/// ([`Engine::add_invalidation_listener`]) *after* the store sweep
/// completes — by the time a listener runs, no future lookup on this
/// engine can resolve the invalidated snapshot. The wire server uses
/// these events to fan out push frames that keep subscribed clients'
/// L1 caches sound; because a downstream cache may hold an entry this
/// engine already evicted, revoke/flush events fire even when the local
/// sweep removed nothing (fail-closed over precise).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Invalidation {
    /// [`Engine::revoke_fingerprint`] swept the tenant's snapshots
    /// carrying `fingerprint`.
    Revoked {
        /// The tenant whose snapshots were swept.
        tenant: String,
        /// The revoked source fingerprint.
        fingerprint: u64,
    },
    /// A key's snapshot was replaced ([`Engine::reload`], or an
    /// [`Engine::install`] that displaced a live snapshot with a
    /// semantically different policy). The key travels as its two
    /// fingerprint halves so a cache can evict **by key** even when its
    /// entry predates this engine's (e.g. the engine's own copy was
    /// LRU-evicted before the reload landed).
    Reloaded {
        /// The tenant whose key was reloaded.
        tenant: String,
        /// Task-half of the store key.
        task_fp: u64,
        /// Context-half of the store key.
        context_fp: u64,
        /// Fingerprint of the *replacement* policy.
        fingerprint: u64,
    },
    /// [`Engine::flush_tenant`] dropped every snapshot the tenant had.
    Flushed {
        /// The flushed tenant.
        tenant: String,
    },
}

impl Invalidation {
    /// The tenant the invalidation applies to.
    pub fn tenant(&self) -> &str {
        match self {
            Invalidation::Revoked { tenant, .. }
            | Invalidation::Reloaded { tenant, .. }
            | Invalidation::Flushed { tenant } => tenant,
        }
    }
}

/// A registered invalidation observer; see
/// [`Engine::add_invalidation_listener`].
pub type InvalidationListener = Box<dyn Fn(&Invalidation) + Send + Sync>;

/// Receipt for an [`Engine::reload`]: what was displaced, what replaced
/// it, and the install generation the new snapshot carries.
#[derive(Debug, Clone)]
pub struct ReloadReceipt {
    /// Source fingerprint of the snapshot that was replaced, if the key
    /// was live when the reload landed.
    pub old_fingerprint: Option<u64>,
    /// Install generation stamped on the new snapshot.
    pub generation: u64,
    /// The freshly compiled snapshot now serving the key.
    pub policy: Arc<CompiledPolicy>,
}

/// One unit of work for [`check_parallel`].
#[derive(Debug, Clone)]
pub struct CheckJob {
    /// Tenant the check is attributed to.
    pub tenant: Box<str>,
    /// Which compiled policy judges the call.
    pub key: EngineKey,
    /// The proposed action.
    pub call: ApiCall,
}

impl CheckJob {
    /// Builds a job.
    pub fn new(tenant: &str, key: EngineKey, call: ApiCall) -> Self {
        CheckJob { tenant: tenant.into(), key, call }
    }
}

/// Outcome of one multi-threaded evaluation run.
#[derive(Debug, Clone, Copy)]
pub struct ParallelReport {
    /// Worker threads used.
    pub threads: usize,
    /// Total calls checked (== jobs supplied).
    pub checked: u64,
    /// Calls allowed.
    pub allowed: u64,
    /// Calls denied (including default denials for missing policies).
    pub denied: u64,
    /// Jobs whose key had no installed policy (denied by default).
    pub missing_policy: u64,
    /// Wall-clock time for the whole run.
    pub elapsed: Duration,
}

/// One session's trajectory progress, threaded through
/// [`Resolved::check`].
///
/// The engine itself stays stateless per check; callers that want
/// temporal constraints (call budgets, ordering rules, sliding windows)
/// enforced across a sequence of checks own one `SessionState` per
/// logical session and pass it back in on every check. Because the state
/// lives *outside* the policy store, revoking, flushing, snapshotting, or
/// warm-starting policies can never resurrect a spent budget: the same
/// policy fingerprint resolves to the same still-spent session state.
///
/// The state is keyed to the policy snapshot's fingerprint. When a check
/// resolves a snapshot with a *different* fingerprint (the policy was
/// regenerated with new semantics), the trajectory state is rebuilt fresh
/// — counters from one policy's rules are meaningless under another's.
#[derive(Debug, Clone, Default)]
pub struct SessionState {
    fingerprint: Option<u64>,
    trajectory: Option<TrajectoryState>,
}

impl SessionState {
    /// A fresh session: no policy seen, no steps recorded.
    pub fn new() -> Self {
        SessionState::default()
    }

    /// Fingerprint of the policy snapshot this state was built against
    /// (`None` until the first session-aware check resolves a policy).
    pub fn fingerprint(&self) -> Option<u64> {
        self.fingerprint
    }

    /// Logical steps recorded so far (0 when the governing policy has no
    /// trajectory block — stateless checks record nothing).
    pub fn steps(&self) -> u64 {
        self.trajectory.as_ref().map(TrajectoryState::steps).unwrap_or(0)
    }

    /// Re-keys the state to `policy`: kept as-is when the fingerprint
    /// matches, rebuilt when the snapshot changed.
    fn sync(&mut self, policy: &CompiledPolicy) {
        if self.fingerprint != Some(policy.fingerprint()) {
            self.fingerprint = Some(policy.fingerprint());
            self.trajectory = policy.new_trajectory_state();
        }
    }
}

/// How [`Engine::resolve`] bills its one store lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Billing {
    /// The engine's store is the authority for the key: bill the tenant
    /// a hit or a miss.
    Authoritative,
    /// The engine is a cache above the authority (the served client's
    /// L1): bill a hit, and bill nothing on a miss, not even the
    /// tenant's row. The layer below bills that lookup; billing it here
    /// too would count one logical lookup twice.
    Cache,
}

/// A policy key resolved by [`Engine::resolve`]: the snapshot that
/// governs it and the stats of the tenant its decisions are billed to.
#[derive(Debug)]
pub struct Resolved {
    policy: Arc<CompiledPolicy>,
    stats: Arc<TenantStats>,
}

impl Resolved {
    /// Judges `call` and bills one decision: the engine's one compiled
    /// decision function. The per-API entry judges first, so its
    /// denials take precedence, matching the pipeline's layer order.
    ///
    /// With a `session`, the session first syncs to this snapshot; then
    /// a call the entry allows is judged by the compiled trajectory and,
    /// if allowed, **recorded** into the session. Session checks are
    /// check-and-advance, because callers (the wire server, batch
    /// harnesses) treat an allowed decision as authorisation to
    /// execute. With `None` the check is stateless and the trajectory
    /// block is ignored. A policy with no trajectory block costs
    /// nothing beyond the stateless check.
    pub fn check(&self, session: Option<&mut SessionState>, call: &ApiCall) -> Decision {
        let mut decision = self.policy.check(call);
        if let Some(session) = session {
            session.sync(&self.policy);
            if let (true, Some(trajectory), Some(state)) =
                (decision.allowed, self.policy.trajectory(), session.trajectory.as_mut())
            {
                let verdict = trajectory.check(state, call);
                if verdict.allowed {
                    trajectory.record(state, call);
                } else {
                    decision = Decision {
                        allowed: false,
                        rationale: verdict.rationale,
                        violation: verdict.violation,
                    };
                }
            }
        }
        self.stats.record_decision(decision.allowed);
        decision
    }

    /// [`check`](Self::check) on each call in order. A session advances
    /// through the batch: call *n* sees the budgets spent by calls
    /// *0..n*.
    pub fn check_all(
        &self,
        mut session: Option<&mut SessionState>,
        calls: &[ApiCall],
    ) -> Vec<Decision> {
        calls.iter().map(|call| self.check(session.as_deref_mut(), call)).collect()
    }
}

/// Multi-threaded evaluation: `jobs` are striped across `threads`
/// scoped workers sharing `engine`'s store. Each job is one stateless
/// check under an authoritative [`Engine::resolve`]. A job whose key
/// has no installed policy is denied by default (the paper's stance for
/// anything outside a policy), billed as a miss plus a denied decision,
/// and reported in [`ParallelReport::missing_policy`].
pub fn check_parallel(engine: &Engine, jobs: &[CheckJob], threads: usize) -> ParallelReport {
    let threads = threads.max(1);
    let start = Instant::now();
    let totals: Vec<(u64, u64, u64)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|worker| {
                scope.spawn(move || {
                    let (mut allowed, mut denied, mut missing) = (0u64, 0u64, 0u64);
                    for job in jobs.iter().skip(worker).step_by(threads) {
                        let resolved =
                            engine.resolve(&job.tenant, &job.key, Billing::Authoritative);
                        let verdict = match resolved {
                            Some(resolved) => resolved.check(None, &job.call).allowed,
                            None => {
                                engine.tenant(&job.tenant).record_decision(false);
                                missing += 1;
                                false
                            }
                        };
                        if verdict {
                            allowed += 1;
                        } else {
                            denied += 1;
                        }
                    }
                    (allowed, denied, missing)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("worker panicked")).collect()
    });
    let elapsed = start.elapsed();
    let (allowed, denied, missing_policy) =
        totals.into_iter().fold((0, 0, 0), |(a, d, m), (wa, wd, wm)| (a + wa, d + wd, m + wm));
    ParallelReport { threads, checked: allowed + denied, allowed, denied, missing_policy, elapsed }
}

/// The concurrent multi-tenant enforcement engine.
///
/// Shared by reference (`&Engine` / `Arc<Engine>`) across any number of
/// threads; every method takes `&self`.
///
/// The engine is the one revocation authority: its one
/// [`RevocationJournal`] (in memory until [`recover`](crate::recover)
/// attaches a durable one) records every revoke and install/reload
/// reinstatement, and gates every snapshot import.
pub struct Engine {
    store: PolicyStore,
    tenants: RwLock<HashMap<Box<str>, Arc<TenantStats>>>,
    listeners: RwLock<Vec<InvalidationListener>>,
    journal: RwLock<Arc<RevocationJournal>>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new(StoreConfig::default())
    }
}

impl Engine {
    /// Creates an engine with the given store layout.
    pub fn new(config: StoreConfig) -> Self {
        Engine {
            store: PolicyStore::new(config),
            tenants: RwLock::new(HashMap::new()),
            listeners: RwLock::new(Vec::new()),
            journal: RwLock::new(Arc::new(RevocationJournal::in_memory())),
        }
    }

    /// Makes `journal` this engine's revocation journal, first copying
    /// every revocation the current one holds into it so no revoke is
    /// lost.
    pub(crate) fn attach_journal(
        &self,
        journal: Arc<RevocationJournal>,
    ) -> Result<(), JournalError> {
        let mut current = self.journal.write();
        for (tenant, fingerprints) in current.revoked_by_tenant()? {
            for fingerprint in fingerprints {
                journal.record_revoke(&tenant, fingerprint)?;
            }
        }
        *current = journal;
        Ok(())
    }

    /// `tenant`'s revoked fingerprints: the set every import is gated
    /// on.
    pub(crate) fn revoked(&self, tenant: &str) -> Result<HashSet<u64>, JournalError> {
        self.journal.read().revoked_snapshot(tenant)
    }

    /// Registers an [`Invalidation`] observer, called synchronously at
    /// the end of every invalidating mutation
    /// ([`revoke_fingerprint`](Self::revoke_fingerprint),
    /// [`reload`](Self::reload), [`flush_tenant`](Self::flush_tenant),
    /// and an [`install`](Self::install) that displaces a live
    /// snapshot) — after the store sweep, outside all engine locks. The
    /// mutation does not return until every listener has: a listener
    /// that blocks until downstream caches acknowledge extends the
    /// engine's revocation guarantee ("once this returns, no future
    /// lookup resolves the snapshot") across those caches.
    pub fn add_invalidation_listener(&self, listener: InvalidationListener) {
        self.listeners.write().push(listener);
    }

    fn notify(&self, event: Invalidation) {
        for listener in self.listeners.read().iter() {
            listener(&event);
        }
    }

    /// The underlying policy store (for diagnostics).
    pub fn store(&self) -> &PolicyStore {
        &self.store
    }

    fn tenant(&self, name: &str) -> Arc<TenantStats> {
        if let Some(stats) = self.tenants.read().get(name) {
            return Arc::clone(stats);
        }
        let mut tenants = self.tenants.write();
        Arc::clone(tenants.entry(name.into()).or_default())
    }

    /// Compiles `policy` and installs it for (`tenant`, `task`,
    /// `context`), returning the shared snapshot. Re-installing a key
    /// atomically replaces the snapshot for *future* lookups; in-flight
    /// holders of the old `Arc` are unaffected. The install reinstates
    /// the fingerprint in the journal; a displaced one stays off it.
    ///
    /// # Errors
    ///
    /// [`JournalError`] if the reinstate cannot be journaled; nothing
    /// is installed. The in-memory journal never fails.
    pub fn install(
        &self,
        tenant: &str,
        task: &str,
        context: &TrustedContext,
        policy: &Policy,
    ) -> Result<Arc<CompiledPolicy>, JournalError> {
        let compiled = Arc::new(CompiledPolicy::compile(policy));
        self.journal.read().record_reinstate(tenant, compiled.fingerprint())?;
        let key = EngineKey::new(tenant, task, context);
        let (old_fingerprint, _) = self.store.replace(key, Arc::clone(&compiled));
        // An install that displaces a *different* live policy is a
        // reload in all but billing — downstream caches must hear about
        // it. Re-installing the identical policy invalidates nothing.
        if old_fingerprint.is_some_and(|old| old != compiled.fingerprint()) {
            self.notify(Invalidation::Reloaded {
                tenant: tenant.to_owned(),
                task_fp: key.policy_key().task_fp(),
                context_fp: key.policy_key().context_fp(),
                fingerprint: compiled.fingerprint(),
            });
        }
        Ok(compiled)
    }

    /// Resolves `key` for `tenant` with one store lookup, billed as
    /// `billing` says. `None` means no policy is installed for the key;
    /// callers should generate and [`install`](Self::install) one.
    pub fn resolve(&self, tenant: &str, key: &EngineKey, billing: Billing) -> Option<Resolved> {
        let policy = self.store.get(key);
        if policy.is_none() && billing == Billing::Cache {
            return None;
        }
        let stats = self.tenant(tenant);
        stats.record_lookup(policy.is_some());
        Some(Resolved { policy: policy?, stats })
    }

    /// Fetches the compiled policy for (`tenant`, `task`, `context`),
    /// billing the hit or miss against the tenant.
    pub fn lookup(
        &self,
        tenant: &str,
        task: &str,
        context: &TrustedContext,
    ) -> Option<Arc<CompiledPolicy>> {
        let key = EngineKey::new(tenant, task, context);
        self.resolve(tenant, &key, Billing::Authoritative).map(|resolved| resolved.policy)
    }

    /// Fetches the compiled policy, generating (via `make`) and compiling
    /// it on a miss. Returns the snapshot plus whether it was served from
    /// cache. `make` hands over a shared policy handle, so the snapshot
    /// keeps the caller's `Arc` instead of deep-cloning the policy. A
    /// miss journals and fails like [`install`](Self::install).
    pub fn get_or_compile(
        &self,
        tenant: &str,
        task: &str,
        context: &TrustedContext,
        make: impl FnOnce() -> Arc<Policy>,
    ) -> Result<(Arc<CompiledPolicy>, bool), JournalError> {
        if let Some(policy) = self.lookup(tenant, task, context) {
            return Ok((policy, true));
        }
        let compiled = Arc::new(CompiledPolicy::compile_arc(make()));
        self.journal.read().record_reinstate(tenant, compiled.fingerprint())?;
        let key = EngineKey::new(tenant, task, context);
        Ok((self.store.get_or_insert_with(key, || compiled).0, false))
    }

    /// A pipeline policy layer over `policy` whose checks are billed to
    /// `tenant`, for sessions assembled outside the engine (the agent's
    /// per-task [`PipelineBuilder`](conseca_core::pipeline::PipelineBuilder)
    /// stacks).
    pub fn session_layer(
        &self,
        tenant: &str,
        policy: Arc<CompiledPolicy>,
    ) -> crate::layer::CompiledPolicyLayer {
        crate::layer::CompiledPolicyLayer::with_stats(policy, self.tenant(tenant))
    }

    /// Judges one call statelessly: an authoritative
    /// [`resolve`](Self::resolve), then [`Resolved::check`] with no
    /// session. `None` means no policy is installed for the key (the
    /// miss is billed).
    pub fn check(
        &self,
        tenant: &str,
        task: &str,
        context: &TrustedContext,
        call: &ApiCall,
    ) -> Option<Decision> {
        let key = EngineKey::new(tenant, task, context);
        Some(self.resolve(tenant, &key, Billing::Authoritative)?.check(None, call))
    }

    /// Judges one call statelessly against an already-held snapshot.
    /// No lookup is billed, only the decision.
    pub fn check_compiled(
        &self,
        tenant: &str,
        policy: &Arc<CompiledPolicy>,
        call: &ApiCall,
    ) -> Decision {
        Resolved { policy: Arc::clone(policy), stats: self.tenant(tenant) }.check(None, call)
    }

    /// [`check_compiled`](Self::check_compiled) with the session's
    /// trajectory state, as [`Resolved::check`] threads it.
    pub fn check_compiled_session(
        &self,
        tenant: &str,
        policy: &Arc<CompiledPolicy>,
        session: &mut SessionState,
        call: &ApiCall,
    ) -> Decision {
        Resolved { policy: Arc::clone(policy), stats: self.tenant(tenant) }
            .check(Some(session), call)
    }

    /// Drops every policy installed for `tenant` from the store,
    /// returning how many entries were removed. The tenant's counters are
    /// deliberately kept — a flush invalidates *policies* (e.g. after the
    /// trusted context changes), not the operator's view of load. Checks
    /// issued after a flush see a store miss until a policy is
    /// re-installed; in-flight holders of old snapshots are unaffected.
    pub fn flush_tenant(&self, tenant: &str) -> usize {
        let removed = self.store.flush_tenant(tenant);
        self.notify(Invalidation::Flushed { tenant: tenant.to_owned() });
        removed
    }

    /// Revokes every snapshot `tenant` has installed whose source policy
    /// carries `fingerprint` — the paper's "policy for a context that no
    /// longer exists" case. Once this returns, no future lookup (and so no
    /// future check in any execution mode fronting this engine) can
    /// resolve the revoked snapshot; checks against the swept keys fail
    /// closed (miss → no decision) until a reload installs a replacement.
    /// The sweep is counted in the tenant's `revoked` counter. The
    /// revoke is journaled *before* the sweep: durable before anyone can
    /// observe it.
    ///
    /// # Errors
    ///
    /// [`JournalError`] if the append failed. The sweep still ran (fail
    /// closed), but the revoke is not durable.
    pub fn revoke_fingerprint(
        &self,
        tenant: &str,
        fingerprint: u64,
    ) -> Result<usize, JournalError> {
        let journaled = self.journal.read().record_revoke(tenant, fingerprint);
        let removed = self.store.revoke_fingerprint(tenant, fingerprint);
        if removed > 0 {
            self.tenant(tenant).revoked.fetch_add(removed as u64, Ordering::Relaxed);
        }
        // Fires even when the local sweep removed nothing: a downstream
        // cache may still hold a snapshot this store already evicted.
        self.notify(Invalidation::Revoked { tenant: tenant.to_owned(), fingerprint });
        journaled.map(|()| removed)
    }

    /// Revoke-and-replace in one atomic step: compiles `policy` and swaps
    /// it in for (`tenant`, `task`, `context`) under the shard's write
    /// lock, so a racing check either sees the old snapshot (if it
    /// resolved before the swap) or the new one — never a gap, never a
    /// mix. Returns the receipt: the fingerprint of the snapshot that was
    /// replaced (if the key was live) plus the new compiled snapshot.
    /// Counted in the tenant's `reloads` counter (and `revoked`, when a
    /// live snapshot was displaced). Journals, and fails, like
    /// [`install`](Self::install).
    pub fn reload(
        &self,
        tenant: &str,
        task: &str,
        context: &TrustedContext,
        policy: &Policy,
    ) -> Result<ReloadReceipt, JournalError> {
        let compiled = Arc::new(CompiledPolicy::compile(policy));
        self.journal.read().record_reinstate(tenant, compiled.fingerprint())?;
        let key = EngineKey::new(tenant, task, context);
        let (old_fingerprint, generation) = self.store.replace(key, Arc::clone(&compiled));
        let stats = self.tenant(tenant);
        stats.reloads.fetch_add(1, Ordering::Relaxed);
        if old_fingerprint.is_some() {
            stats.revoked.fetch_add(1, Ordering::Relaxed);
        }
        self.notify(Invalidation::Reloaded {
            tenant: tenant.to_owned(),
            task_fp: key.policy_key().task_fp(),
            context_fp: key.policy_key().context_fp(),
            fingerprint: compiled.fingerprint(),
        });
        Ok(ReloadReceipt { old_fingerprint, generation, policy: compiled })
    }

    /// A tenant's counters (zeros for a tenant the engine has never seen).
    pub fn tenant_counters(&self, tenant: &str) -> TenantCounters {
        self.tenants.read().get(tenant).map(|s| s.snapshot()).unwrap_or_default()
    }

    /// All tenants' counters, sorted by tenant name.
    pub fn counters(&self) -> Vec<(String, TenantCounters)> {
        let mut all: Vec<(String, TenantCounters)> = self
            .tenants
            .read()
            .iter()
            .map(|(name, stats)| (name.to_string(), stats.snapshot()))
            .collect();
        all.sort_by(|a, b| a.0.cmp(&b.0));
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conseca_core::{ArgConstraint, PolicyEntry, TrajectoryPolicy, Violation};

    fn send_policy() -> Policy {
        let mut policy = Policy::new("respond to urgent work emails");
        policy.set(
            "send_email",
            PolicyEntry::allow(
                vec![ArgConstraint::regex("^alice$").unwrap()],
                "responses come from alice",
            ),
        );
        policy.set("delete_email", PolicyEntry::deny("no deletions in this task"));
        policy
    }

    fn call(name: &str, args: &[&str]) -> ApiCall {
        ApiCall::new("test", name, args.iter().map(|s| s.to_string()).collect())
    }

    fn ctx() -> TrustedContext {
        TrustedContext::for_user("alice")
    }

    /// An authoritative session check of one call under acme's key.
    fn session_check(
        engine: &Engine,
        task: &str,
        session: &mut SessionState,
        call: &ApiCall,
    ) -> Option<Decision> {
        let key = EngineKey::new("acme", task, &ctx());
        Some(engine.resolve("acme", &key, Billing::Authoritative)?.check(Some(session), call))
    }

    #[test]
    fn install_then_check_counts_per_tenant() {
        let engine = Engine::default();
        let policy = send_policy();
        engine.install("acme", &policy.task, &ctx(), &policy).unwrap();
        let task = policy.task.clone();
        let ok = engine.check("acme", &task, &ctx(), &call("send_email", &["alice"])).unwrap();
        assert!(ok.allowed);
        let denied = engine.check("acme", &task, &ctx(), &call("delete_email", &["1"])).unwrap();
        assert!(!denied.allowed);
        assert!(engine.check("acme", "other task", &ctx(), &call("ls", &[])).is_none());
        let counters = engine.tenant_counters("acme");
        assert_eq!(counters.checks, 2);
        assert_eq!(counters.allowed, 1);
        assert_eq!(counters.denied, 1);
        assert_eq!(counters.hits, 2);
        assert_eq!(counters.misses, 1);
        // A different tenant sees none of acme's policies or counters.
        assert!(engine.check("rival", &task, &ctx(), &call("send_email", &["alice"])).is_none());
        assert_eq!(engine.tenant_counters("rival").misses, 1);
        assert_eq!(engine.tenant_counters("nobody"), TenantCounters::default());
    }

    #[test]
    fn get_or_compile_compiles_once() {
        let engine = Engine::default();
        let mut compiles = 0;
        let mut make = || {
            compiles += 1;
            Arc::new(send_policy())
        };
        let (first, hit) = engine.get_or_compile("acme", "t", &ctx(), &mut make).unwrap();
        assert!(!hit);
        let (second, hit) = engine.get_or_compile("acme", "t", &ctx(), &mut make).unwrap();
        assert!(hit);
        assert_eq!(compiles, 1);
        assert!(Arc::ptr_eq(&first, &second));
    }

    #[test]
    fn check_all_uses_one_lookup() {
        let engine = Engine::default();
        let policy = send_policy();
        engine.install("acme", "t", &ctx(), &policy).unwrap();
        let calls =
            vec![call("send_email", &["alice"]), call("send_email", &["eve"]), call("ls", &[])];
        let key = EngineKey::new("acme", "t", &ctx());
        let decisions =
            engine.resolve("acme", &key, Billing::Authoritative).unwrap().check_all(None, &calls);
        assert_eq!(
            decisions.iter().map(|d| d.allowed).collect::<Vec<_>>(),
            vec![true, false, false]
        );
        let counters = engine.tenant_counters("acme");
        assert_eq!((counters.hits, counters.checks), (1, 3));
    }

    #[test]
    fn parallel_checks_share_the_store() {
        let engine = Engine::default();
        let policy = send_policy();
        let context = ctx();
        let mut jobs = Vec::new();
        for tenant in ["acme", "globex"] {
            engine.install(tenant, "t", &context, &policy).unwrap();
            let key = EngineKey::new(tenant, "t", &context);
            for i in 0..50 {
                let call = if i % 5 == 0 {
                    call("delete_email", &["1"])
                } else {
                    call("send_email", &["alice"])
                };
                jobs.push(CheckJob::new(tenant, key, call));
            }
        }
        // One job against a key nobody installed: default deny.
        jobs.push(CheckJob::new(
            "acme",
            EngineKey::new("acme", "uninstalled", &context),
            call("ls", &[]),
        ));
        let report = check_parallel(&engine, &jobs, 4);
        assert_eq!(report.checked, 101);
        assert_eq!(report.allowed, 80);
        assert_eq!(report.denied, 21);
        assert_eq!(report.missing_policy, 1);
        let acme = engine.tenant_counters("acme");
        let globex = engine.tenant_counters("globex");
        assert_eq!(acme.checks, 51);
        assert_eq!(globex.checks, 50);
    }

    #[test]
    fn flush_tenant_invalidates_policies_but_keeps_counters() {
        let engine = Engine::default();
        let policy = send_policy();
        let task = policy.task.clone();
        engine.install("acme", &task, &ctx(), &policy).unwrap();
        engine.install("globex", &task, &ctx(), &policy).unwrap();
        engine.check("acme", &task, &ctx(), &call("send_email", &["alice"])).unwrap();
        assert_eq!(engine.flush_tenant("acme"), 1);
        // The policy is gone for acme, present for globex.
        assert!(engine.check("acme", &task, &ctx(), &call("send_email", &["alice"])).is_none());
        assert!(engine.check("globex", &task, &ctx(), &call("send_email", &["alice"])).is_some());
        // Counters survive the flush: 1 check before + hit, then a miss.
        let counters = engine.tenant_counters("acme");
        assert_eq!(counters.checks, 1);
        assert_eq!((counters.hits, counters.misses), (1, 1));
        // Re-install restores service.
        engine.install("acme", &task, &ctx(), &policy).unwrap();
        assert!(engine.check("acme", &task, &ctx(), &call("send_email", &["alice"])).is_some());
    }

    #[test]
    fn revoke_fingerprint_fails_checks_closed_until_reload() {
        let engine = Engine::default();
        let policy = send_policy();
        let task = policy.task.clone();
        engine.install("acme", &task, &ctx(), &policy).unwrap();
        assert!(engine.check("acme", &task, &ctx(), &call("send_email", &["alice"])).is_some());
        assert_eq!(engine.revoke_fingerprint("acme", policy.fingerprint()).unwrap(), 1);
        // Fail closed: the key resolves nothing until a reload lands.
        assert!(
            engine.check("acme", &task, &ctx(), &call("send_email", &["alice"])).is_none(),
            "a revoked snapshot must not serve decisions"
        );
        let mut replacement = Policy::new(&task);
        replacement.set("send_email", PolicyEntry::deny("context changed: no more sends"));
        let receipt = engine.reload("acme", &task, &ctx(), &replacement).unwrap();
        assert_eq!(receipt.old_fingerprint, None, "the revoked key was empty at reload time");
        let decision =
            engine.check("acme", &task, &ctx(), &call("send_email", &["alice"])).unwrap();
        assert!(!decision.allowed, "the reloaded policy governs now");
        let counters = engine.tenant_counters("acme");
        assert_eq!(counters.revoked, 1);
        assert_eq!(counters.reloads, 1);
    }

    #[test]
    fn reload_on_a_live_key_reports_the_displaced_fingerprint() {
        let engine = Engine::default();
        let policy = send_policy();
        let task = policy.task.clone();
        engine.install("acme", &task, &ctx(), &policy).unwrap();
        let mut regenerated = Policy::new(&task);
        regenerated.set("send_email", PolicyEntry::allow_any("regenerated"));
        let receipt = engine.reload("acme", &task, &ctx(), &regenerated).unwrap();
        assert_eq!(receipt.old_fingerprint, Some(policy.fingerprint()));
        assert_eq!(receipt.policy.fingerprint(), regenerated.fingerprint());
        let counters = engine.tenant_counters("acme");
        assert_eq!((counters.reloads, counters.revoked), (1, 1));
        // The swap is visible immediately.
        let decision = engine.check("acme", &task, &ctx(), &call("send_email", &["eve"])).unwrap();
        assert!(decision.allowed, "the regenerated policy allows any sender");
    }

    #[test]
    fn revoking_an_unknown_fingerprint_is_a_counted_noop() {
        let engine = Engine::default();
        engine.install("acme", "t", &ctx(), &send_policy()).unwrap();
        assert_eq!(engine.revoke_fingerprint("acme", 0xdead_beef).unwrap(), 0);
        assert_eq!(engine.tenant_counters("acme").revoked, 0, "no-op sweeps are not counted");
        assert!(engine.check("acme", "t", &ctx(), &call("delete_email", &["1"])).is_some());
    }

    #[test]
    fn revocations_gate_imports_per_tenant_until_a_reinstall() {
        let engine = Engine::default();
        let policy = send_policy();
        let task = policy.task.clone();
        let snapshots: Vec<Vec<u8>> = ["a", "b"]
            .iter()
            .map(|tenant| {
                engine.install(tenant, &task, &ctx(), &policy).unwrap();
                engine.store().export_snapshot(tenant).unwrap().bytes
            })
            .collect();
        engine.revoke_fingerprint("a", policy.fingerprint()).unwrap();
        engine.flush_tenant("b");
        let a = engine.import_snapshot("a", &snapshots[0]).unwrap();
        assert_eq!((a.installed, a.skipped_revoked), (0, 1), "tenant a revoked the fingerprint");
        let b = engine.import_snapshot("b", &snapshots[1]).unwrap();
        assert_eq!((b.installed, b.skipped_revoked), (1, 0), "tenant a's revoke must not gate b");
        // A deliberate reinstall in `a` makes the fingerprint restorable
        // there again.
        engine.install("a", &task, &ctx(), &policy).unwrap();
        engine.flush_tenant("a");
        let a = engine.import_snapshot("a", &snapshots[0]).unwrap();
        assert_eq!((a.installed, a.skipped_revoked), (1, 0));
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let engine = Engine::default();
        let report = check_parallel(&engine, &[], 0);
        assert_eq!(report.threads, 1);
        assert_eq!(report.checked, 0);
    }

    fn budgeted_policy(budget: usize) -> Policy {
        let mut policy = Policy::new("triage the inbox");
        policy.set("list_emails", PolicyEntry::allow_any("listing is the task"));
        policy.set_trajectory(TrajectoryPolicy::new().budget(budget));
        policy
    }

    #[test]
    fn session_checks_exhaust_budgets_and_bill_like_check() {
        let engine = Engine::default();
        let policy = budgeted_policy(2);
        engine.install("acme", &policy.task, &ctx(), &policy).unwrap();
        let mut session = SessionState::new();
        let list = call("list_emails", &["Inbox"]);
        for _ in 0..2 {
            let d = session_check(&engine, &policy.task, &mut session, &list).unwrap();
            assert!(d.allowed);
        }
        let third = session_check(&engine, &policy.task, &mut session, &list).unwrap();
        assert!(!third.allowed);
        assert_eq!(third.violation, Some(Violation::BudgetExhausted { max: 2 }));
        assert_eq!(session.steps(), 2, "denied calls do not advance the clock");
        // Billing parity with the stateless path: 3 hits, 3 checks.
        let counters = engine.tenant_counters("acme");
        assert_eq!((counters.hits, counters.checks), (3, 3));
        assert_eq!((counters.allowed, counters.denied), (2, 1));
    }

    #[test]
    fn session_denied_by_policy_does_not_spend_the_budget() {
        let engine = Engine::default();
        let policy = budgeted_policy(5);
        engine.install("acme", &policy.task, &ctx(), &policy).unwrap();
        let mut session = SessionState::new();
        let denied =
            session_check(&engine, &policy.task, &mut session, &call("rm", &["-rf"])).unwrap();
        assert!(!denied.allowed, "unlisted APIs stay default-denied");
        assert_eq!(session.steps(), 0, "a policy denial must not consume trajectory budget");
    }

    #[test]
    fn revoke_and_reinstall_does_not_resurrect_spent_budgets() {
        let engine = Engine::default();
        let policy = budgeted_policy(1);
        engine.install("acme", &policy.task, &ctx(), &policy).unwrap();
        let mut session = SessionState::new();
        let list = call("list_emails", &["Inbox"]);
        assert!(session_check(&engine, &policy.task, &mut session, &list).unwrap().allowed);
        // Revoke, then reinstall the byte-identical policy (what a
        // warm-start from a snapshot does). Same fingerprint → the
        // session's spent state still governs.
        assert_eq!(engine.revoke_fingerprint("acme", policy.fingerprint()).unwrap(), 1);
        assert!(session_check(&engine, &policy.task, &mut session, &list).is_none());
        engine.install("acme", &policy.task, &ctx(), &policy).unwrap();
        let after = session_check(&engine, &policy.task, &mut session, &list).unwrap();
        assert!(!after.allowed, "reinstalling the same policy must not reset the budget");
        assert_eq!(after.violation, Some(Violation::BudgetExhausted { max: 1 }));
    }

    #[test]
    fn a_semantically_new_policy_rebuilds_session_state() {
        let engine = Engine::default();
        let policy = budgeted_policy(1);
        engine.install("acme", &policy.task, &ctx(), &policy).unwrap();
        let mut session = SessionState::new();
        let list = call("list_emails", &["Inbox"]);
        assert!(session_check(&engine, &policy.task, &mut session, &list).unwrap().allowed);
        let regenerated = budgeted_policy(3);
        assert_ne!(regenerated.fingerprint(), policy.fingerprint());
        engine.reload("acme", &policy.task, &ctx(), &regenerated).unwrap();
        // New semantics, new state: the budget-of-3 clock starts fresh.
        assert!(session_check(&engine, &policy.task, &mut session, &list).unwrap().allowed);
        assert_eq!(session.steps(), 1);
        assert_eq!(session.fingerprint(), Some(regenerated.fingerprint()));
    }

    #[test]
    fn check_all_session_advances_through_the_batch() {
        let engine = Engine::default();
        let mut policy = Policy::new("t");
        policy.set("ping", PolicyEntry::allow_any("ok"));
        policy.set_trajectory(TrajectoryPolicy::new().limit_in_window("ping", 2, 10, "no bursts"));
        engine.install("acme", "t", &ctx(), &policy).unwrap();
        let mut session = SessionState::new();
        let calls = vec![call("ping", &[]), call("ping", &[]), call("ping", &[])];
        let key = EngineKey::new("acme", "t", &ctx());
        let resolved = engine.resolve("acme", &key, Billing::Authoritative).unwrap();
        let decisions = resolved.check_all(Some(&mut session), &calls);
        assert_eq!(
            decisions.iter().map(|d| d.allowed).collect::<Vec<_>>(),
            vec![true, true, false],
            "the third call in the batch must see the window spent by the first two"
        );
        let counters = engine.tenant_counters("acme");
        assert_eq!((counters.hits, counters.checks), (1, 3));
    }

    #[test]
    fn cached_session_checks_bill_hits_but_never_misses() {
        let engine = Engine::default();
        let policy = send_policy();
        let mut session = SessionState::new();
        let key = EngineKey::new("acme", &policy.task, &ctx());
        let send = call("send_email", &["alice"]);
        // Miss: no lookup billed at all — the layer below owns it.
        assert!(engine.resolve("acme", &key, Billing::Cache).is_none());
        assert_eq!(engine.tenant_counters("acme"), TenantCounters::default());
        // Hit: bills like an authoritative hit — one hit, one decision.
        engine.install("acme", &policy.task, &ctx(), &policy).unwrap();
        let d =
            engine.resolve("acme", &key, Billing::Cache).unwrap().check(Some(&mut session), &send);
        assert!(d.allowed);
        let batch = engine
            .resolve("acme", &key, Billing::Cache)
            .unwrap()
            .check_all(Some(&mut session), &[send.clone(), call("delete_email", &["1"])]);
        assert_eq!(batch.iter().map(|d| d.allowed).collect::<Vec<_>>(), vec![true, false]);
        let counters = engine.tenant_counters("acme");
        assert_eq!((counters.hits, counters.misses), (2, 0));
        assert_eq!((counters.checks, counters.allowed, counters.denied), (3, 2, 1));
    }

    /// An allow entry, a deny entry and a one-call limit on the allowed
    /// API: a session sees the limit, a stateless check does not.
    fn billing_policy() -> Policy {
        let mut policy = Policy::new("t");
        policy.set("ls", PolicyEntry::allow_any("listing is the task"));
        policy.set("rm", PolicyEntry::deny("no deletions"));
        policy.set_trajectory(TrajectoryPolicy::new().limit("ls", 1, "one listing"));
        policy
    }

    /// The billing table in docs/engine.md, one row per entry point: the
    /// verdicts on `ls, ls, rm` and the exact counters billed, each row
    /// on a fresh engine (an install bills nothing).
    #[test]
    fn every_entry_point_bills_its_row_of_the_billing_table() {
        type Run = fn(&Engine, &str, &Arc<CompiledPolicy>, &[ApiCall]) -> Option<Vec<Decision>>;
        type Verdicts = Option<Vec<Option<Violation>>>;
        let calls = [call("ls", &[]), call("ls", &[]), call("rm", &[])];
        let stateless = Some(vec![None, None, Some(Violation::CannotExecute)]);
        let limited = Violation::RateLimited { api: "ls".into(), limit: 1, used: 1 };
        let session = Some(vec![None, Some(limited), Some(Violation::CannotExecute)]);
        let billed = |hits, misses, checks, allowed| TenantCounters {
            hits,
            misses,
            checks,
            allowed,
            denied: checks - allowed,
            ..TenantCounters::default()
        };
        fn key(task: &str) -> EngineKey {
            EngineKey::new("acme", task, &ctx())
        }
        /// Checks every call, even after a miss, then collects.
        fn each(
            calls: &[ApiCall],
            check: impl FnMut(&ApiCall) -> Option<Decision>,
        ) -> Option<Vec<Decision>> {
            calls.iter().map(check).collect::<Vec<_>>().into_iter().collect()
        }
        let rows: [(&str, Run, Verdicts, TenantCounters); 8] = [
            (
                "check",
                |e, task, _, calls| each(calls, |call| e.check("acme", task, &ctx(), call)),
                stateless.clone(),
                billed(3, 0, 3, 2),
            ),
            (
                "lookup",
                |e, task, _, _| e.lookup("acme", task, &ctx()).map(|_| Vec::new()),
                Some(Vec::new()),
                billed(1, 0, 0, 0),
            ),
            (
                "stateless batch",
                |e, task, _, calls| {
                    e.resolve("acme", &key(task), Billing::Authoritative)
                        .map(|r| r.check_all(None, calls))
                },
                stateless.clone(),
                billed(1, 0, 3, 2),
            ),
            (
                "session, one call at a time",
                |e, task, _, calls| {
                    let mut session = SessionState::new();
                    each(calls, |call| session_check(e, task, &mut session, call))
                },
                session.clone(),
                billed(3, 0, 3, 1),
            ),
            (
                "authoritative session batch",
                |e, task, _, calls| {
                    let mut session = SessionState::new();
                    e.resolve("acme", &key(task), Billing::Authoritative)
                        .map(|r| r.check_all(Some(&mut session), calls))
                },
                session.clone(),
                billed(1, 0, 3, 1),
            ),
            (
                "cache session batch",
                |e, task, _, calls| {
                    let mut session = SessionState::new();
                    e.resolve("acme", &key(task), Billing::Cache)
                        .map(|r| r.check_all(Some(&mut session), calls))
                },
                session.clone(),
                billed(1, 0, 3, 1),
            ),
            (
                "check_compiled",
                |e, _, held, calls| {
                    Some(calls.iter().map(|call| e.check_compiled("acme", held, call)).collect())
                },
                stateless.clone(),
                billed(0, 0, 3, 2),
            ),
            (
                "check_compiled_session",
                |e, _, held, calls| {
                    let mut session = SessionState::new();
                    let check = |call| e.check_compiled_session("acme", held, &mut session, call);
                    Some(calls.iter().map(check).collect())
                },
                session.clone(),
                billed(0, 0, 3, 1),
            ),
        ];
        let held = Arc::new(CompiledPolicy::compile(&billing_policy()));
        let verdicts = |decisions: Option<Vec<Decision>>| {
            decisions.map(|all| all.into_iter().map(|d| d.violation).collect::<Vec<_>>())
        };
        for (name, run, expected, counters) in &rows {
            let engine = Engine::default();
            engine.install("acme", "t", &ctx(), &billing_policy()).unwrap();
            assert_eq!(verdicts(run(&engine, "t", &held, &calls)), *expected, "{name}");
            assert_eq!(engine.tenant_counters("acme"), *counters, "{name}");
        }

        // A key with no policy: an authoritative lookup bills a miss
        // wherever it billed a hit, and nothing else; a cache lookup
        // bills nothing at all, not even the tenant's row.
        for (name, run, _, installed) in &rows[..6] {
            let engine = Engine::default();
            engine.install("acme", "t", &ctx(), &billing_policy()).unwrap();
            assert_eq!(verdicts(run(&engine, "missing", &held, &calls)), None, "{name}");
            let misses = if *name == "cache session batch" { 0 } else { installed.hits };
            assert_eq!(engine.tenant_counters("acme"), billed(0, misses, 0, 0), "{name}");
            assert_eq!(engine.counters().is_empty(), misses == 0, "{name}");
        }

        // The parallel checker is stateless, bills one lookup per job,
        // and bills a job on a missing key as a miss plus a denial.
        let engine = Engine::default();
        engine.install("acme", "t", &ctx(), &billing_policy()).unwrap();
        let mut jobs: Vec<CheckJob> =
            calls.iter().map(|call| CheckJob::new("acme", key("t"), call.clone())).collect();
        jobs.push(CheckJob::new("acme", key("missing"), call("ls", &[])));
        let report = check_parallel(&engine, &jobs, 2);
        assert_eq!((report.allowed, report.denied, report.missing_policy), (2, 2, 1));
        assert_eq!(
            engine.tenant_counters("acme"),
            TenantCounters { misses: 1, ..billed(3, 0, 4, 2) }
        );
    }

    #[test]
    fn invalidation_listeners_hear_every_sweep() {
        use std::sync::Mutex;
        let engine = Engine::default();
        let events: Arc<Mutex<Vec<Invalidation>>> = Arc::default();
        let sink = Arc::clone(&events);
        engine.add_invalidation_listener(Box::new(move |event| {
            sink.lock().unwrap().push(event.clone());
        }));
        let policy = send_policy();
        let task = policy.task.clone();
        let key = EngineKey::new("acme", &task, &ctx()).policy_key();

        // A first install (empty key) and an identical re-install
        // invalidate nothing.
        engine.install("acme", &task, &ctx(), &policy).unwrap();
        engine.install("acme", &task, &ctx(), &policy).unwrap();
        assert!(events.lock().unwrap().is_empty());

        // An install that displaces a different policy is a reload.
        let mut regenerated = Policy::new(&task);
        regenerated.set("send_email", PolicyEntry::allow_any("regenerated"));
        engine.install("acme", &task, &ctx(), &regenerated).unwrap();
        assert_eq!(
            events.lock().unwrap().last(),
            Some(&Invalidation::Reloaded {
                tenant: "acme".into(),
                task_fp: key.task_fp(),
                context_fp: key.context_fp(),
                fingerprint: regenerated.fingerprint(),
            })
        );

        // Revoke fires even when the sweep removes nothing (fail-closed
        // for downstream caches holding locally evicted entries).
        engine.revoke_fingerprint("acme", 0xdead_beef).unwrap();
        assert_eq!(
            events.lock().unwrap().last(),
            Some(&Invalidation::Revoked { tenant: "acme".into(), fingerprint: 0xdead_beef })
        );

        // Reload and flush fire unconditionally, after the sweep: by
        // listener time the store already serves the new state.
        engine.reload("acme", &task, &ctx(), &policy).unwrap();
        assert_eq!(
            events.lock().unwrap().last(),
            Some(&Invalidation::Reloaded {
                tenant: "acme".into(),
                task_fp: key.task_fp(),
                context_fp: key.context_fp(),
                fingerprint: policy.fingerprint(),
            })
        );
        engine.flush_tenant("acme");
        assert_eq!(
            events.lock().unwrap().last(),
            Some(&Invalidation::Flushed { tenant: "acme".into() })
        );
        assert_eq!(events.lock().unwrap().len(), 4);
        assert_eq!(events.lock().unwrap()[0].tenant(), "acme");
    }

    #[test]
    fn sessions_with_no_trajectory_block_record_nothing() {
        let engine = Engine::default();
        let policy = send_policy();
        engine.install("acme", &policy.task, &ctx(), &policy).unwrap();
        let mut session = SessionState::new();
        for _ in 0..4 {
            session_check(&engine, &policy.task, &mut session, &call("send_email", &["alice"]))
                .unwrap();
        }
        assert_eq!(session.steps(), 0);
        assert_eq!(session.fingerprint(), Some(policy.fingerprint()));
    }
}
