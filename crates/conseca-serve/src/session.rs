//! Pipeline integration: a served policy as the per-action policy layer.
//!
//! [`TenantClient`] is the one tenant-bound remote handle: a plain
//! [`Client`] plus the tenant it bills, or a subscribed [`CachedClient`]
//! whose subscription fixes the tenant. [`RemoteSessionLayer`] is the
//! out-of-process sibling of
//! [`CompiledPolicyLayer`](conseca_engine::CompiledPolicyLayer) over
//! either: same layer name (`"policy"`), same verdicts, same violation
//! provenance — but each check goes to a policy-decision server, either
//! as a round-trip or through the cached client's local L1. The agent
//! parity tests assert engine-backed, served, cached, and in-process
//! runs report identical enforcement outcomes.

use std::sync::Arc;

use conseca_core::pipeline::{CheckLayer, LayerOutcome, SessionStats, Verdict, LAYER_POLICY};
use conseca_core::{Decision, Policy, TrustedContext};
use conseca_engine::TenantCounters;
use conseca_shell::ApiCall;

use crate::cache::CachedClient;
use crate::client::{
    Client, ClientError, InstallReceipt, ReloadReceipt, RestoreReceipt, SnapshotReceipt,
};

/// A remote policy-decision connection bound to one tenant: every
/// operation below is billed to that tenant, whichever connection core
/// carries it.
///
/// # Errors
///
/// Each method forwards to the [`Client`] or [`CachedClient`] method of
/// the same name and returns its transport, protocol, or server errors.
#[derive(Debug)]
pub enum TenantClient {
    /// One round-trip per operation, billed to `tenant`.
    Plain {
        /// The connection.
        client: Client,
        /// The tenant every operation is billed to.
        tenant: String,
    },
    /// Local L1 decisions after a one-time policy fetch, kept sound by
    /// the push invalidation channel; the tenant is the subscription's.
    Cached(CachedClient),
}

impl TenantClient {
    /// One policy decision for one call; `Ok(None)` means the server has
    /// no policy for the key (a cached client's local miss has already
    /// fallen through to an authoritative fetch).
    pub fn check(
        &mut self,
        task: &str,
        context: &TrustedContext,
        call: &ApiCall,
    ) -> Result<Option<Decision>, ClientError> {
        match self {
            TenantClient::Plain { client, tenant } => client.check(tenant, task, context, call),
            TenantClient::Cached(client) => client.check(task, context, call),
        }
    }

    /// Decisions for a batch of calls against one policy key.
    pub fn check_all(
        &mut self,
        task: &str,
        context: &TrustedContext,
        calls: &[ApiCall],
    ) -> Result<Option<Vec<Decision>>, ClientError> {
        match self {
            TenantClient::Plain { client, tenant } => {
                client.check_all(tenant, task, context, calls)
            }
            TenantClient::Cached(client) => client.check_all(task, context, calls),
        }
    }

    /// The source policy installed server-side for (task, context), if
    /// any. Bills the server-side lookup.
    pub fn fetch_policy(
        &mut self,
        task: &str,
        context: &TrustedContext,
    ) -> Result<Option<Policy>, ClientError> {
        match self {
            TenantClient::Plain { client, tenant } => client.fetch_policy(tenant, task, context),
            TenantClient::Cached(client) => client.fetch_policy(task, context),
        }
    }

    /// Compiles and installs `policy` for (task, context) on the server.
    pub fn install(
        &mut self,
        task: &str,
        context: &TrustedContext,
        policy: &Policy,
    ) -> Result<InstallReceipt, ClientError> {
        match self {
            TenantClient::Plain { client, tenant } => client.install(tenant, task, context, policy),
            TenantClient::Cached(client) => client.install(task, context, policy),
        }
    }

    /// Revokes every snapshot carrying `fingerprint` server-side. On a
    /// cached client the revocation has been pushed to, and acknowledged
    /// by, every subscriber (this one included) when this returns.
    pub fn revoke(&mut self, fingerprint: u64) -> Result<u64, ClientError> {
        match self {
            TenantClient::Plain { client, tenant } => client.revoke(tenant, fingerprint),
            TenantClient::Cached(client) => client.revoke(fingerprint),
        }
    }

    /// Revoke-and-replace in one round-trip, server-side.
    pub fn reload(
        &mut self,
        task: &str,
        context: &TrustedContext,
        policy: &Policy,
    ) -> Result<ReloadReceipt, ClientError> {
        match self {
            TenantClient::Plain { client, tenant } => client.reload(tenant, task, context, policy),
            TenantClient::Cached(client) => client.reload(task, context, policy),
        }
    }

    /// Drops every policy the tenant has installed server-side.
    pub fn flush(&mut self) -> Result<u64, ClientError> {
        match self {
            TenantClient::Plain { client, tenant } => client.flush(tenant),
            TenantClient::Cached(client) => client.flush(),
        }
    }

    /// Exports everything the tenant has installed server-side as a
    /// snapshot blob.
    pub fn snapshot(&mut self) -> Result<SnapshotReceipt, ClientError> {
        match self {
            TenantClient::Plain { client, tenant } => client.snapshot(tenant),
            TenantClient::Cached(client) => client.snapshot(),
        }
    }

    /// Warm-starts the tenant server-side from snapshot bytes.
    pub fn restore(&mut self, snapshot: Vec<u8>) -> Result<RestoreReceipt, ClientError> {
        match self {
            TenantClient::Plain { client, tenant } => client.restore(tenant, snapshot),
            TenantClient::Cached(client) => client.restore(snapshot),
        }
    }

    /// The tenant's counters; a cached client folds in the share it
    /// answered locally ([`CachedClient::stats`]).
    pub fn stats(&mut self) -> Result<TenantCounters, ClientError> {
        match self {
            TenantClient::Plain { client, tenant } => client.stats(tenant),
            TenantClient::Cached(client) => client.stats(),
        }
    }
}

/// The per-action policy check (§3.3) answered by a remote engine.
///
/// Enforcement is **fail-closed**: a transport failure mid-session is a
/// panic, never a silent allow — a reference monitor that cannot reach
/// its policy must not approve actions. If the server evicted the
/// policy between checks (LRU pressure, a flush), the layer re-installs
/// the policy it holds and retries, a bounded number of times.
pub struct RemoteSessionLayer<'c> {
    client: &'c mut TenantClient,
    task: String,
    context: TrustedContext,
    policy: Arc<Policy>,
}

impl<'c> RemoteSessionLayer<'c> {
    /// A layer checking (`task`, `context`) through `client`, holding
    /// `policy` for eviction recovery.
    pub fn new(
        client: &'c mut TenantClient,
        task: &str,
        context: TrustedContext,
        policy: Arc<Policy>,
    ) -> Self {
        RemoteSessionLayer { client, task: task.to_owned(), context, policy }
    }

    fn decide(&mut self, call: &ApiCall) -> Decision {
        // A check can find the snapshot gone (LRU pressure from other
        // tenants, a concurrent flush) — re-install the policy this
        // session holds and retry. Bounded: under sustained eviction
        // races every retry could lose again, and aborting (fail-closed)
        // beats looping forever inside a reference monitor.
        const ATTEMPTS: usize = 4;
        const TRANSPORT: &str = "remote enforcement transport failed (fail-closed)";
        for attempt in 0..ATTEMPTS {
            match self.client.check(&self.task, &self.context, call).expect(TRANSPORT) {
                Some(decision) => return decision,
                None if attempt + 1 < ATTEMPTS => {
                    self.client.install(&self.task, &self.context, &self.policy).expect(TRANSPORT);
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
