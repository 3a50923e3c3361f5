//! Pipeline integration: a served policy as the per-action policy layer.
//!
//! [`RemoteSessionLayer`] is the out-of-process sibling of
//! [`CompiledPolicyLayer`](conseca_engine::CompiledPolicyLayer): same
//! layer name (`"policy"`), same verdicts, same violation provenance —
//! but each check goes to a policy-decision server, either as a
//! round-trip on a [`Client`] or through a [`CachedClient`]'s local L1.
//! The agent parity tests assert engine-backed, served, cached, and
//! in-process runs report identical enforcement outcomes.

use std::sync::Arc;

use conseca_core::pipeline::{CheckLayer, LayerOutcome, SessionStats, Verdict, LAYER_POLICY};
use conseca_core::{Decision, Policy, TrustedContext};
use conseca_shell::ApiCall;

use crate::cache::CachedClient;
use crate::client::{Client, ClientError, InstallReceipt};

/// Where a [`RemoteSessionLayer`] sends its checks.
enum Backend<'c> {
    /// One round-trip per check, billed to `tenant`.
    Plain { client: &'c mut Client, tenant: String },
    /// Local L1 decisions after a one-time policy fetch, kept sound by
    /// the push invalidation channel; the tenant is the subscription's.
    Cached(&'c mut CachedClient),
}

/// The per-action policy check (§3.3) answered by a remote engine.
///
/// Enforcement is **fail-closed**: a transport failure mid-session is a
/// panic, never a silent allow — a reference monitor that cannot reach
/// its policy must not approve actions. If the server evicted the
/// policy between checks (LRU pressure, a flush), the layer re-installs
/// the policy it holds and retries, a bounded number of times.
pub struct RemoteSessionLayer<'c> {
    backend: Backend<'c>,
    task: String,
    context: TrustedContext,
    policy: Arc<Policy>,
}

impl<'c> RemoteSessionLayer<'c> {
    /// A layer billing checks for (`tenant`, `task`, `context`) to
    /// `client`'s server, holding `policy` for eviction recovery.
    pub fn new(
        client: &'c mut Client,
        tenant: &str,
        task: &str,
        context: TrustedContext,
        policy: Arc<Policy>,
    ) -> Self {
        let backend = Backend::Plain { client, tenant: tenant.to_owned() };
        RemoteSessionLayer { backend, task: task.to_owned(), context, policy }
    }

    /// A layer answering checks for (`task`, `context`) from `client`'s
    /// cache (tenant fixed by the client's subscription), holding
    /// `policy` for eviction recovery.
    pub fn cached(
        client: &'c mut CachedClient,
        task: &str,
        context: TrustedContext,
        policy: Arc<Policy>,
    ) -> Self {
        RemoteSessionLayer {
            backend: Backend::Cached(client),
            task: task.to_owned(),
            context,
            policy,
        }
    }

    /// One check; `None` means the *server* has no policy for the key (a
    /// cached client's local miss has already fallen through to an
    /// authoritative fetch).
    fn check_once(&mut self, call: &ApiCall) -> Result<Option<Decision>, ClientError> {
        match &mut self.backend {
            Backend::Plain { client, tenant } => {
                client.check(tenant, &self.task, &self.context, call)
            }
            Backend::Cached(client) => client.check(&self.task, &self.context, call),
        }
    }

    fn reinstall(&mut self) -> Result<InstallReceipt, ClientError> {
        match &mut self.backend {
            Backend::Plain { client, tenant } => {
                client.install(tenant, &self.task, &self.context, &self.policy)
            }
            Backend::Cached(client) => client.install(&self.task, &self.context, &self.policy),
        }
    }

    fn decide(&mut self, call: &ApiCall) -> Decision {
        // A check can find the snapshot gone (LRU pressure from other
        // tenants, a concurrent flush) — re-install the policy this
        // session holds and retry. Bounded: under sustained eviction
        // races every retry could lose again, and aborting (fail-closed)
        // beats looping forever inside a reference monitor.
        const ATTEMPTS: usize = 4;
        for attempt in 0..ATTEMPTS {
            match self.check_once(call).expect("remote enforcement transport failed (fail-closed)")
            {
                Some(decision) => return decision,
                None if attempt + 1 < ATTEMPTS => {
                    self.reinstall().expect("remote enforcement transport failed (fail-closed)");
                }
                None => {}
            }
        }
        panic!(
            "remote policy snapshot evicted {ATTEMPTS} times in a row despite re-installs \
             (fail-closed); the server's store is too small for its tenant load"
        );
    }
}

impl CheckLayer for RemoteSessionLayer<'_> {
    fn name(&self) -> &'static str {
        LAYER_POLICY
    }

    fn check(&mut self, call: &ApiCall, _stats: &SessionStats, pending: &Verdict) -> LayerOutcome {
        if !pending.allowed {
            return LayerOutcome::Pass;
        }
        let decision = self.decide(call);
        match decision.violation {
            None => LayerOutcome::Allow { rationale: decision.rationale },
            Some(violation) => LayerOutcome::Deny { rationale: decision.rationale, violation },
        }
    }
}
