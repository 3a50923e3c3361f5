//! Policy hot-reload: fingerprint revocation plus a regeneration watcher.
//!
//! The paper's policies are *contextual*: a policy is only the right
//! policy while the trusted context it was generated from still holds. A
//! snapshot compiled yesterday is the wrong policy the moment the
//! context changes — the "stale decision state" integrity gap. The
//! [`Engine`] already swaps snapshots atomically
//! ([`Engine::install`]/[`Engine::reload`]) and sweeps them by
//! fingerprint ([`Engine::revoke_fingerprint`]); what this module adds is
//! the piece that knows *when* to do either: a [`ReloadCoordinator`]
//! that remembers, for every live (tenant, task) policy, the context it
//! was generated against, detects drift by recomputing the context's
//! [`drift fingerprint`](TrustedContext::drift_fingerprint), and drives
//! the revoke → regenerate → reinstall sequence, emitting
//! [`AuditEvent::PolicyRevoked`] / [`AuditEvent::PolicyReloaded`] so the
//! reload trail is auditable like every enforcement decision.
//!
//! The sequence is **fail-closed by construction**: the stale snapshot
//! is revoked *before* regeneration starts, so a check racing the reload
//! either still holds the old `Arc` (it resolved before the revocation
//! landed — the store's documented snapshot semantics) or misses and is
//! denied by default until the regenerated policy is installed. No
//! ordering lets a post-revocation lookup resolve the revoked snapshot,
//! and reloads and revocations *claim* the tracking entry they act on,
//! so a completed [`revoke`](ReloadCoordinator::revoke) can never be
//! silently undone by an in-flight reload. (Callers outside the
//! coordinator that hold a specific (snapshot, generation) pair get the
//! same clobber-safety from the store primitive
//! [`PolicyStore::revoke_if_generation`](crate::PolicyStore::revoke_if_generation).)

use std::collections::HashMap;
use std::sync::Arc;

use conseca_core::{AuditEvent, AuditSink, Policy, TrustedContext};
use parking_lot::RwLock;

use crate::compile::CompiledPolicy;
use crate::engine::Engine;
use crate::journal::JournalError;

/// Identity of one tracked policy: the tenant it bills to and the task
/// text it is keyed by (the same strings the engine's store fingerprints).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct LiveKey {
    tenant: Box<str>,
    task: Box<str>,
}

impl LiveKey {
    fn new(tenant: &str, task: &str) -> Self {
        LiveKey { tenant: tenant.into(), task: task.into() }
    }
}

/// What the coordinator remembers about one live policy.
#[derive(Debug, Clone, Copy)]
struct LiveEntry {
    /// Full context fingerprint (the store-key component).
    context_fp: u64,
    /// Semantic context fingerprint watched for drift.
    drift_fp: u64,
    /// Source fingerprint of the installed policy.
    policy_fp: u64,
}

/// What one [`ReloadCoordinator::sweep`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepReport {
    /// Tracked keys examined.
    pub scanned: usize,
    /// Keys whose context had drifted and were reloaded.
    pub reloaded: usize,
    /// Keys whose context could not be resolved (revoked, not reloaded —
    /// a context that no longer exists cannot justify any policy).
    pub orphaned: usize,
    /// Keys whose revoke or reinstate the engine's journal failed to
    /// record. Their snapshots were still swept (fail closed), but the
    /// key is no longer tracked and the revoke may not be durable.
    pub journal_errors: usize,
}

/// Tracks live (tenant, task, context) policies on an [`Engine`] and
/// reloads them when their trusted context drifts. Revocation state is
/// the engine's alone: the coordinator only tracks drift.
///
/// Shared by reference across threads; every method takes `&self`.
pub struct ReloadCoordinator {
    engine: Arc<Engine>,
    live: RwLock<HashMap<LiveKey, LiveEntry>>,
}

impl ReloadCoordinator {
    /// A coordinator fronting `engine`.
    pub fn new(engine: Arc<Engine>) -> Self {
        ReloadCoordinator { engine, live: RwLock::new(HashMap::new()) }
    }

    /// Number of (tenant, task) keys currently tracked.
    pub fn tracked(&self) -> usize {
        self.live.read().len()
    }

    /// Compiles and installs `policy` for (`tenant`, `task`, `context`)
    /// through the engine, and starts watching the key for context drift.
    ///
    /// # Errors
    ///
    /// As [`Engine::install`]; the key is then not tracked.
    pub fn install(
        &self,
        tenant: &str,
        task: &str,
        context: &TrustedContext,
        policy: &Policy,
    ) -> Result<Arc<CompiledPolicy>, JournalError> {
        let compiled = self.engine.install(tenant, task, context, policy)?;
        self.track(tenant, task, context, policy.fingerprint());
        Ok(compiled)
    }

    /// Starts watching a key that was installed directly on the engine.
    pub fn track(&self, tenant: &str, task: &str, context: &TrustedContext, policy_fp: u64) {
        self.live.write().insert(
            LiveKey::new(tenant, task),
            LiveEntry {
                context_fp: context.fingerprint(),
                drift_fp: context.drift_fingerprint(),
                policy_fp,
            },
        );
    }

    /// Stops watching every key of `tenant` that serves `fingerprint`,
    /// for revocations applied outside the coordinator (a wire
    /// `Revoke`), so a later [`sweep`](Self::sweep) does not regenerate
    /// the dead policy.
    pub fn retire_fingerprint(&self, tenant: &str, fingerprint: u64) {
        self.live.write().retain(|key, entry| {
            !(key.tenant.as_ref() == tenant && entry.policy_fp == fingerprint)
        });
    }

    /// Whether the tracked policy for (`tenant`, `task`) was generated
    /// against a context that no longer matches `current` (semantically —
    /// the logical clock alone never counts as drift). Untracked keys are
    /// not stale: the coordinator only speaks for policies it watches.
    fn is_stale(&self, tenant: &str, task: &str, current: &TrustedContext) -> bool {
        self.live
            .read()
            .get(&LiveKey::new(tenant, task))
            .map(|entry| entry.drift_fp != current.drift_fingerprint())
            .unwrap_or(false)
    }

    /// Revokes the tracked policy for (`tenant`, `task`) through
    /// [`Engine::revoke_fingerprint`] — journals the revoke, sweeps every
    /// snapshot carrying its fingerprint out of the store — then stops
    /// watching the key and audits the revocation. Returns how many
    /// store entries the sweep removed, or `None` if the key was not
    /// tracked. Checks against the swept keys fail closed until
    /// something reinstalls.
    ///
    /// # Errors
    ///
    /// As [`Engine::revoke_fingerprint`]: the sweep ran and was audited,
    /// but the revoke is not durable.
    pub fn revoke(
        &self,
        tenant: &str,
        task: &str,
        reason: &str,
        sink: &mut dyn AuditSink,
    ) -> Result<Option<usize>, JournalError> {
        let Some(entry) = self.live.write().remove(&LiveKey::new(tenant, task)) else {
            return Ok(None);
        };
        let removed = self.engine.revoke_fingerprint(tenant, entry.policy_fp);
        sink.record(AuditEvent::PolicyRevoked {
            task: task.to_owned(),
            fingerprint: entry.policy_fp,
            context_fingerprint: entry.context_fp,
            reason: reason.to_owned(),
        });
        removed.map(Some)
    }

    /// The revoke → regenerate → reinstall sequence for one key. Returns
    /// `false` for untracked keys.
    ///
    /// Ordering is the fail-closed one: the stale snapshot is swept
    /// *before* `regenerate` runs, so while regeneration is in flight the
    /// key resolves nothing and checks are denied by default; the
    /// regenerated policy then lands atomically under the new context key
    /// via [`Engine::reload`].
    ///
    /// A reload and a concurrent [`revoke`](Self::revoke) race by
    /// *claiming* the tracking entry: whichever removes it first wins and
    /// the loser no-ops. In particular a completed revocation can never
    /// be silently undone by an in-flight reload reinstalling the key —
    /// the reload finds the entry gone and returns `false`. (A revocation
    /// that arrives *after* a reload has claimed the entry returns
    /// `None`; the operator then sees the key untracked and can revoke
    /// the reloaded fingerprint explicitly.)
    ///
    /// # Errors
    ///
    /// As [`Engine::revoke_fingerprint`] (the stale snapshot was swept,
    /// nothing was reinstalled) or [`Engine::reload`]. Either way the
    /// key is no longer tracked and fails closed until reinstalled.
    fn reload_now(
        &self,
        tenant: &str,
        task: &str,
        current: &TrustedContext,
        regenerate: impl FnOnce(&TrustedContext) -> Policy,
        sink: &mut dyn AuditSink,
    ) -> Result<bool, JournalError> {
        // 0. Claim the entry. Reading without removing would let a
        // racing revoke() complete in the window before our reinstall,
        // which this reload would then reverse.
        let Some(stale) = self.live.write().remove(&LiveKey::new(tenant, task)) else {
            return Ok(false);
        };
        // 1. Fail closed: sweep the stale snapshot before regenerating —
        // the engine journals the revoke first, so a crash anywhere in
        // this sequence leaves the stale fingerprint durably revoked.
        let revoked = self.engine.revoke_fingerprint(tenant, stale.policy_fp);
        sink.record(AuditEvent::PolicyRevoked {
            task: task.to_owned(),
            fingerprint: stale.policy_fp,
            context_fingerprint: stale.context_fp,
            reason: "trusted context drifted".to_owned(),
        });
        revoked?;
        // 2. Regenerate against the current context and reinstall. The
        // reload reinstates the new fingerprint, so a regeneration that
        // came out identical leaves nothing revoked; otherwise the old
        // fingerprint stays revoked.
        let policy = regenerate(current);
        let new_fingerprint = policy.fingerprint();
        self.engine.reload(tenant, task, current, &policy)?;
        sink.record(AuditEvent::PolicyReloaded {
            task: task.to_owned(),
            old_fingerprint: stale.policy_fp,
            new_fingerprint,
            old_context: stale.context_fp,
            new_context: current.fingerprint(),
        });
        // 3. Keep watching under the new identity.
        self.track(tenant, task, current, new_fingerprint);
        Ok(true)
    }

    /// The regeneration-watcher pass: re-resolves every tracked key's
    /// current context via `resolve`, reloads the drifted ones through
    /// `regenerate` (a clock tick alone is not drift), and revokes keys
    /// whose context can no longer be resolved at all. One call is one
    /// watch tick; deployments run it from whatever cadence (timer,
    /// inotify-style hook, post-commit) the context source supports. A
    /// journal failure on one key is counted in
    /// [`SweepReport::journal_errors`] and the sweep moves on.
    pub fn sweep(
        &self,
        resolve: impl Fn(&str, &str) -> Option<TrustedContext>,
        regenerate: impl Fn(&str, &str, &TrustedContext) -> Policy,
        sink: &mut dyn AuditSink,
    ) -> SweepReport {
        let tracked: Vec<LiveKey> = self.live.read().keys().cloned().collect();
        let mut report = SweepReport { scanned: tracked.len(), ..SweepReport::default() };
        for key in tracked {
            match resolve(&key.tenant, &key.task) {
                Some(current) if !self.is_stale(&key.tenant, &key.task, &current) => {}
                Some(current) => match self.reload_now(
                    &key.tenant,
                    &key.task,
                    &current,
                    |ctx| regenerate(&key.tenant, &key.task, ctx),
                    sink,
                ) {
                    Ok(true) => report.reloaded += 1,
                    Ok(false) => {}
                    Err(_) => report.journal_errors += 1,
                },
                None => {
                    match self.revoke(&key.tenant, &key.task, "context no longer resolvable", sink)
                    {
                        Ok(Some(_)) => report.orphaned += 1,
                        Ok(None) => {}
                        Err(_) => report.journal_errors += 1,
                    }
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Billing, EngineKey};
    use conseca_core::{AuditLog, CountingSink, PolicyEntry};
    use conseca_shell::ApiCall;

    fn ctx(user: &str, tree: &str) -> TrustedContext {
        let mut ctx = TrustedContext::for_user(user);
        ctx.fs_tree = tree.to_owned();
        ctx
    }

    fn policy_for(task: &str, ctx: &TrustedContext) -> Policy {
        let mut policy = Policy::new(task);
        policy.set(
            "ls",
            PolicyEntry::allow_any(&format!("listing ok under tree {}", ctx.fs_tree.len())),
        );
        policy
    }

    fn ls() -> ApiCall {
        ApiCall::new("fs", "ls", vec!["/".into()])
    }

    #[test]
    fn drift_is_detected_and_reloaded_with_audit_trail() {
        let engine = Arc::new(Engine::default());
        let coordinator = ReloadCoordinator::new(Arc::clone(&engine));
        let mut log = AuditLog::new();
        let before = ctx("alice", "alice/\n");
        let policy = policy_for("t", &before);
        coordinator.install("acme", "t", &before, &policy).unwrap();
        assert_eq!(coordinator.tracked(), 1);
        assert!(!coordinator.is_stale("acme", "t", &before));

        // The logical clock alone is not drift.
        let mut ticked = before.clone();
        ticked.time += 100;
        assert!(!coordinator.is_stale("acme", "t", &ticked));
        let report =
            coordinator.sweep(|_, _| Some(ticked.clone()), |_, t, c| policy_for(t, c), &mut log);
        assert_eq!(report.reloaded, 0);

        // A grown fs tree is.
        let after = ctx("alice", "alice/\n  New/\n");
        assert!(coordinator.is_stale("acme", "t", &after));
        let reloaded =
            coordinator.reload_now("acme", "t", &after, |c| policy_for("t", c), &mut log).unwrap();
        assert!(reloaded, "drift must reload");

        // The old key is gone; the new key serves.
        assert!(engine.check("acme", "t", &before, &ls()).is_none(), "stale key fails closed");
        assert!(engine.check("acme", "t", &after, &ls()).unwrap().allowed);
        assert!(!coordinator.is_stale("acme", "t", &after), "tracking follows the reload");

        // Audit: one revocation, one reload, fingerprints chained.
        let events: Vec<_> = log.records().iter().map(|r| &r.event).collect();
        match (events[0], events[1]) {
            (
                AuditEvent::PolicyRevoked { fingerprint, context_fingerprint, .. },
                AuditEvent::PolicyReloaded { old_fingerprint, old_context, new_context, .. },
            ) => {
                assert_eq!(*fingerprint, policy.fingerprint(), "the stale policy is revoked");
                assert_eq!(fingerprint, old_fingerprint);
                assert_eq!(context_fingerprint, old_context);
                assert_eq!(*new_context, after.fingerprint());
            }
            other => panic!("expected Revoked then Reloaded, got {other:?}"),
        }
        let counters = engine.tenant_counters("acme");
        assert_eq!((counters.reloads, counters.revoked), (1, 1));

        // The drift revoke swept exactly the one stale entry: the store
        // holds only the reloaded policy, under the new key.
        assert_eq!(engine.store().len(), 1);
        assert!(engine.store().is_live(&EngineKey::new("acme", "t", &after)));
    }

    #[test]
    fn no_mode_can_resolve_a_revoked_snapshot_after_revoke_returns() {
        let engine = Arc::new(Engine::default());
        let coordinator = ReloadCoordinator::new(Arc::clone(&engine));
        let mut sink = CountingSink::default();
        let context = ctx("alice", "alice/\n");
        let policy = policy_for("t", &context);
        coordinator.install("acme", "t", &context, &policy).unwrap();
        let removed =
            coordinator.revoke("acme", "t", "operator request", &mut sink).unwrap().unwrap();
        assert_eq!(removed, 1);
        assert!(engine.check("acme", "t", &context, &ls()).is_none());
        let key = EngineKey::new("acme", "t", &context);
        assert!(engine.resolve("acme", &key, Billing::Authoritative).is_none());
        assert!(engine.lookup("acme", "t", &context).is_none());
        assert_eq!(coordinator.tracked(), 0);
        assert!(coordinator.revoke("acme", "t", "again", &mut sink).unwrap().is_none());
        // A reload that lost the claim race to the revocation must not
        // reinstall the key — the revocation stands.
        assert!(
            !coordinator
                .reload_now("acme", "t", &context, |c| policy_for("t", c), &mut sink)
                .unwrap(),
            "an in-flight reload must not undo a completed revocation"
        );
        assert!(engine.check("acme", "t", &context, &ls()).is_none());
    }

    #[test]
    fn sweep_reloads_drifted_keys_and_orphans_unresolvable_ones() {
        let engine = Arc::new(Engine::default());
        let coordinator = ReloadCoordinator::new(Arc::clone(&engine));
        let mut log = AuditLog::new();
        let stable = ctx("alice", "alice/\n");
        let drifting = ctx("bob", "bob/\n");
        coordinator.install("acme", "stable", &stable, &policy_for("stable", &stable)).unwrap();
        coordinator.install("acme", "drifts", &drifting, &policy_for("drifts", &drifting)).unwrap();
        coordinator.install("acme", "orphan", &stable, &policy_for("orphan", &stable)).unwrap();

        let drifted = ctx("bob", "bob/\n  Downloads/\n");
        let report = coordinator.sweep(
            |_tenant, task| match task {
                "stable" => Some(stable.clone()),
                "drifts" => Some(drifted.clone()),
                _ => None,
            },
            |_tenant, task, current| policy_for(task, current),
            &mut log,
        );
        assert_eq!(report, SweepReport { scanned: 3, reloaded: 1, orphaned: 1, journal_errors: 0 });
        assert_eq!(coordinator.tracked(), 2, "the orphan is no longer watched");
        assert!(engine.check("acme", "stable", &stable, &ls()).is_some());
        assert!(engine.check("acme", "drifts", &drifted, &ls()).is_some());
        assert!(engine.check("acme", "drifts", &drifting, &ls()).is_none());
        assert!(engine.check("acme", "orphan", &stable, &ls()).is_none());
        // A second sweep over unchanged contexts is a no-op.
        let report = coordinator.sweep(
            |_tenant, task| match task {
                "stable" => Some(stable.clone()),
                "drifts" => Some(drifted.clone()),
                _ => None,
            },
            |_tenant, task, current| policy_for(task, current),
            &mut log,
        );
        assert_eq!(report, SweepReport { scanned: 2, ..SweepReport::default() });
    }

    #[test]
    fn the_revocation_ledger_feeds_warm_starts() {
        let engine = Arc::new(Engine::default());
        let coordinator = ReloadCoordinator::new(Arc::clone(&engine));
        let mut sink = CountingSink::default();
        let before = ctx("alice", "alice/\n");
        let stale = policy_for("t", &before);
        coordinator.install("acme", "t", &before, &stale).unwrap();

        // A snapshot taken while the stale policy is live...
        let snapshot = engine.store().export_snapshot("acme").unwrap();

        // ...then the context drifts and the reload regenerates a
        // semantically different policy (same-fingerprint regenerations
        // stay restorable — see the next test).
        let after = ctx("alice", "alice/\n  New/\n");
        let reloaded = coordinator
            .reload_now(
                "acme",
                "t",
                &after,
                |c| {
                    let mut p = policy_for("t", c);
                    p.set("rm", PolicyEntry::deny("the tree grew: deletions locked"));
                    p
                },
                &mut sink,
            )
            .unwrap();
        assert!(reloaded, "tracked key reloads");

        // The engine journaled the displaced fingerprint, so a warm start
        // cannot resurrect it.
        let report = engine.import_snapshot("acme", &snapshot.bytes).unwrap();
        assert_eq!((report.installed, report.skipped_revoked), (0, 1));
        assert!(engine.check("acme", "t", &before, &ls()).is_none());

        // Deliberately reinstalling the fingerprint reinstates it: the
        // policy is live again and restorable again.
        coordinator.install("acme", "t", &before, &stale).unwrap();
        engine.flush_tenant("acme");
        let report = engine.import_snapshot("acme", &snapshot.bytes).unwrap();
        assert_eq!((report.installed, report.skipped_revoked), (1, 0));
    }

    #[test]
    fn identical_regeneration_does_not_ledger_the_live_fingerprint() {
        // A drift reload whose regenerated policy is identical re-keys
        // without poisoning the ledger — the fingerprint is still the
        // one in force and must stay warm-start-restorable.
        let engine = Arc::new(Engine::default());
        let coordinator = ReloadCoordinator::new(Arc::clone(&engine));
        let mut sink = CountingSink::default();
        let before = ctx("alice", "alice/\n");
        let mut fixed = Policy::new("t");
        fixed.set("ls", PolicyEntry::allow_any("always the same"));
        coordinator.install("acme", "t", &before, &fixed).unwrap();
        let snapshot = engine.store().export_snapshot("acme").unwrap();
        let after = ctx("alice", "alice/\n  New/\n");
        let rekeyed = fixed.clone();
        let reloaded =
            coordinator.reload_now("acme", "t", &after, move |_| rekeyed, &mut sink).unwrap();
        assert!(reloaded, "tracked key reloads");
        engine.flush_tenant("acme");
        assert_eq!(
            engine.import_snapshot("acme", &snapshot.bytes).unwrap().skipped_revoked,
            0,
            "an identical regeneration must not ledger its own fingerprint"
        );
    }

    #[test]
    fn forced_reload_works_without_drift() {
        let engine = Arc::new(Engine::default());
        let coordinator = ReloadCoordinator::new(Arc::clone(&engine));
        let mut sink = CountingSink::default();
        let context = ctx("alice", "alice/\n");
        coordinator.install("acme", "t", &context, &policy_for("t", &context)).unwrap();
        let mut tightened = Policy::new("t");
        tightened.set("ls", PolicyEntry::deny("operator lockdown"));
        let fp = tightened.fingerprint();
        let reloaded =
            coordinator.reload_now("acme", "t", &context, move |_| tightened, &mut sink).unwrap();
        assert!(reloaded, "tracked key reloads on demand");
        let live = engine.lookup("acme", "t", &context).expect("the reloaded policy serves");
        assert_eq!(live.fingerprint(), fp);
        assert!(!engine.check("acme", "t", &context, &ls()).unwrap().allowed);
    }
}
