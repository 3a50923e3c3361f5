//! The L1 compiled-policy cache: remote enforcement at engine speed.
//!
//! A plain [`Client`](crate::client::Client) pays one wire round-trip
//! per decision — ~15× an in-process engine check even over an
//! in-memory duplex. A [`CachedClient`] pays that price **once per
//! policy key**: the first check on a key fetches the source policy
//! from the server (one round-trip, billed as the server-side lookup),
//! compiles it into a private local [`Engine`], and every later check
//! on that key resolves locally at engine speed.
//!
//! Caching a reference monitor's policies is only sound if the cache
//! can never outlive the truth. The client therefore subscribes to the
//! server's **push invalidation channel** (wire protocol v5). The
//! connection is an [`AsyncClient`] whose demux task
//! (on the reactor's event loop; the client owns no thread) separates
//! server-initiated `PushRevoke` / `PushReload` / `PushFlush` frames
//! from correlated responses, applies each push to the local cache, and
//! only then acknowledges it. The server does not let
//! the triggering mutation (`Engine::revoke_fingerprint`, `reload`,
//! `flush_tenant`, a `ReloadCoordinator` sweep) return until every
//! subscriber has acknowledged — so once a revocation call completes
//! anywhere in the deployment, no check *starting* afterwards can
//! resolve the stale snapshot here, exactly the guarantee the engine
//! gives in-process.
//!
//! Two fail-closed rules keep the soundness argument short:
//!
//! 1. **Disconnect ⇒ flush.** If the connection drops — EOF, transport
//!    error, or an undecodable frame — the demux task flushes the entire
//!    local cache before reporting [`ClientError::Closed`]. A cache
//!    that can no longer hear invalidations holds nothing.
//! 2. **Pushes never install.** A push frame can only *remove* local
//!    state ([`LocalPolicyCache::apply_push`] evicts or flushes; it
//!    never inserts). Policies enter the cache through exactly one
//!    door: an authoritative `FetchPolicy` answer, installed under an
//!    epoch guard that discards the fetch if any invalidation raced it.
//!
//! Session state ([`SessionState`] — trajectory positions, spent
//! budgets) lives on the *client*, keyed by policy key, and is **never
//! flushed** by pushes or disconnects: budgets are fingerprint-synced,
//! so a re-fetched policy resumes the old session iff it is the same
//! policy — an invalidation cycle cannot resurrect a spent budget.

use core::fmt;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use conseca_core::{CacheKey, Decision, Policy, TrustedContext};
use conseca_engine::{Billing, CompiledPolicy, Engine, EngineKey, SessionState, TenantCounters};
use conseca_shell::ApiCall;

use crate::aclient::AsyncClient;
use crate::client::{
    flushed, installed, policy_ok, reloaded, restored, revoked, snapshot_ok, stats_ok, subscribed,
    ClientError, InstallReceipt, ReloadReceipt, ResponseMap, RestoreReceipt, SnapshotReceipt,
};
use crate::transport::Stream;
use crate::wire::{
    fetch_policy_frame, install_frame, reload_frame, Request, Response, DEFAULT_MAX_FRAME_LEN,
};

/// The client-side policy cache: a private single-tenant [`Engine`]
/// that push frames may only ever shrink.
///
/// Public so the fuzz suite can prove the invariant that matters —
/// [`apply_push`](Self::apply_push) on *arbitrary* frames never
/// installs a policy — without a live server.
pub struct LocalPolicyCache {
    /// The local L1. Nothing registers invalidation listeners on it,
    /// and nothing but the owning client's checks ever bill it, so its
    /// tenant counters are exactly the locally-answered share of the
    /// workload.
    engine: Engine,
    tenant: String,
    /// Bumped (under `sync`) by every applied push and every flush.
    /// A fetch-then-install observes the epoch before fetching and
    /// aborts the install if it moved: the fetched bytes predate an
    /// invalidation and must not enter the cache.
    epoch: AtomicU64,
    /// Serialises push application against fetch installs so the epoch
    /// check and the install are one atomic step.
    sync: Mutex<()>,
}

impl LocalPolicyCache {
    /// An empty cache for `tenant`. Pushes for other tenants bump the
    /// epoch (conservative) but touch no state.
    pub fn new(tenant: &str) -> Self {
        LocalPolicyCache {
            engine: Engine::default(),
            tenant: tenant.to_owned(),
            epoch: AtomicU64::new(0),
            sync: Mutex::new(()),
        }
    }

    /// The tenant this cache serves.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// The invalidation epoch — moves on every applied push or flush.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// How many compiled policies the cache currently holds.
    pub fn policies(&self) -> usize {
        self.engine.store().len()
    }

    /// Counters for the locally-answered share of the workload.
    pub fn counters(&self) -> TenantCounters {
        self.engine.tenant_counters(&self.tenant)
    }

    pub(crate) fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Applies a server push to the cache; returns `Some(seq)` for
    /// push frames (the caller owes the server a `PushAck`) and `None`
    /// for every other response.
    ///
    /// Application is strictly subtractive — store-level sweeps, no
    /// engine billing, and never an install. `PushReload` carries the
    /// key fingerprints *and* the new policy's fingerprint so the
    /// cache can evict by key even when the server's own store has
    /// LRU-evicted the entry; if the held snapshot already carries the
    /// pushed fingerprint the entry is current and stays.
    pub fn apply_push(&self, response: &Response) -> Option<u64> {
        match response {
            Response::PushRevoke { seq, tenant, fingerprint } => {
                let _guard = self.sync.lock().unwrap_or_else(|e| e.into_inner());
                if *tenant == self.tenant {
                    self.engine.store().revoke_fingerprint(tenant, *fingerprint);
                }
                self.epoch.fetch_add(1, Ordering::SeqCst);
                Some(*seq)
            }
            Response::PushReload { seq, tenant, task_fp, context_fp, fingerprint } => {
                let _guard = self.sync.lock().unwrap_or_else(|e| e.into_inner());
                if *tenant == self.tenant {
                    let key = EngineKey::from_cache_key(
                        tenant,
                        CacheKey::from_fingerprints(*task_fp, *context_fp),
                    );
                    if let Some((held, generation)) = self.engine.store().get_with_generation(&key)
                    {
                        if held.fingerprint() != *fingerprint {
                            self.engine.store().revoke_if_generation(&key, generation);
                        }
                    }
                }
                self.epoch.fetch_add(1, Ordering::SeqCst);
                Some(*seq)
            }
            Response::PushFlush { seq, tenant } => {
                let _guard = self.sync.lock().unwrap_or_else(|e| e.into_inner());
                if *tenant == self.tenant {
                    self.engine.store().flush_tenant(tenant);
                }
                self.epoch.fetch_add(1, Ordering::SeqCst);
                Some(*seq)
            }
            _ => None,
        }
    }

    /// Drops every cached policy (the disconnect fail-closed rule).
    pub fn flush_all(&self) {
        let _guard = self.sync.lock().unwrap_or_else(|e| e.into_inner());
        self.engine.store().flush_tenant(&self.tenant);
        self.epoch.fetch_add(1, Ordering::SeqCst);
    }

    /// Compiles a fetched policy and caches it iff no invalidation was
    /// applied since `epoch` was observed (which was before the fetch
    /// was sent) — otherwise the fetched bytes may predate a revocation
    /// and must not be cached. Returns the compiled policy and whether
    /// it was cached.
    ///
    /// The compile runs before `sync` is taken: pushes take that lock on
    /// the reactor loop, which must never wait out a compile.
    fn install_if_epoch(
        &self,
        task: &str,
        context: &TrustedContext,
        policy: &Policy,
        epoch: u64,
    ) -> (Arc<CompiledPolicy>, bool) {
        let compiled = Arc::new(CompiledPolicy::compile(policy));
        let key = EngineKey::new(&self.tenant, task, context);
        let _guard = self.sync.lock().unwrap_or_else(|e| e.into_inner());
        let cached = self.epoch.load(Ordering::SeqCst) == epoch;
        if cached {
            self.engine.store().insert(key, Arc::clone(&compiled));
        }
        (compiled, cached)
    }
}

impl fmt::Debug for LocalPolicyCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LocalPolicyCache")
            .field("tenant", &self.tenant)
            .field("policies", &self.policies())
            .field("epoch", &self.epoch())
            .finish()
    }
}

/// A subscribed policy-decision client with a local L1 cache: the
/// [`Client`](crate::client::Client) API, minus the per-call `tenant`
/// parameter (the subscription fixes the tenant at construction), with
/// checks answered locally after a one-time policy fetch.
///
/// See the module docs for the soundness argument. Compared to the
/// plain client, two things moved client-side: compiled policies (the
/// cache) and session state (trajectory budgets) — so checks look like
/// an in-process [`Resolved::check`](conseca_engine::Resolved::check)
/// with the store lookup occasionally answered by the server.
pub struct CachedClient {
    /// The connection. Its demux task applies pushes to `cache` before
    /// acking them and flushes it before reporting a disconnect.
    core: AsyncClient,
    /// The L1; also the one record of the subscribed tenant.
    cache: Arc<LocalPolicyCache>,
    /// Per-key session state — **client-owned** and deliberately not
    /// flushed by invalidations; see the module docs.
    sessions: HashMap<EngineKey, SessionState>,
    /// Checks that judged against an uncached compile because an
    /// invalidation raced the fetch (observability; billing unchanged).
    fallbacks: u64,
}

impl fmt::Debug for CachedClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CachedClient").field("cache", &*self.cache).finish_non_exhaustive()
    }
}

impl CachedClient {
    /// Wraps an already-established stream, completes the handshake,
    /// and subscribes to `tenant`'s push channel.
    ///
    /// # Errors
    ///
    /// Handshake or subscription failures.
    pub fn over<S: Stream>(stream: S, tenant: &str) -> Result<CachedClient, ClientError> {
        CachedClient::over_with(stream, tenant, DEFAULT_MAX_FRAME_LEN)
    }

    /// [`over`](Self::over) with a non-default frame cap (keep it in
    /// lockstep with the server's `ServeConfig::max_frame_len`).
    ///
    /// # Errors
    ///
    /// Handshake or subscription failures.
    pub fn over_with<S: Stream>(
        stream: S,
        tenant: &str,
        max_frame_len: u32,
    ) -> Result<CachedClient, ClientError> {
        let cache = Arc::new(LocalPolicyCache::new(tenant));
        let core = AsyncClient::start(stream, max_frame_len, Some(Arc::clone(&cache)))?;
        let client = CachedClient { core, cache, sessions: HashMap::new(), fallbacks: 0 };
        client.call(&Request::Subscribe { tenant: tenant.to_owned() }, subscribed)?;
        Ok(client)
    }

    /// The local cache (policy count, epoch, local counters).
    pub fn cache(&self) -> &LocalPolicyCache {
        &self.cache
    }

    /// How many checks fell back to an uncached compile because
    /// an invalidation raced their policy fetch.
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks
    }

    /// One request on the shared core, waited for on this thread.
    fn call<T>(&self, request: &Request, map: ResponseMap<T>) -> Result<T, ClientError> {
        self.core.submit(request, map)?.wait()
    }

    /// One policy decision for one call — answered locally when the
    /// key is cached, else via a one-time policy fetch. `Ok(None)`
    /// means the server has no policy for the key.
    ///
    /// Billing reconciles exactly with the in-process engine path:
    /// every check costs one lookup (a local hit, or the server-side
    /// hit/miss of the fetch) and one decision, split across the two
    /// counter sets that [`stats`](Self::stats) merges.
    ///
    /// # Errors
    ///
    /// Transport, protocol, or server errors.
    pub fn check(
        &mut self,
        task: &str,
        context: &TrustedContext,
        call: &ApiCall,
    ) -> Result<Option<Decision>, ClientError> {
        let decisions = self.check_all(task, context, std::slice::from_ref(call))?;
        Ok(decisions.map(|mut d| d.remove(0)))
    }

    /// Decisions for a batch of calls against one policy key: one
    /// lookup (local or fetched) for the whole batch, like one
    /// [`Engine::resolve`].
    ///
    /// # Errors
    ///
    /// Transport, protocol, or server errors.
    pub fn check_all(
        &mut self,
        task: &str,
        context: &TrustedContext,
        calls: &[ApiCall],
    ) -> Result<Option<Vec<Decision>>, ClientError> {
        let key = self.core.key(self.cache.tenant(), task, context);
        let mut session = self.sessions.remove(&key).unwrap_or_default();
        let result = self.check_calls(&key, task, context, &mut session, calls);
        self.sessions.insert(key, session);
        result
    }

    fn check_calls(
        &mut self,
        key: &EngineKey,
        task: &str,
        context: &TrustedContext,
        session: &mut SessionState,
        calls: &[ApiCall],
    ) -> Result<Option<Vec<Decision>>, ClientError> {
        // L1 hit: the whole batch resolves locally at engine speed.
        if let Some(resolved) =
            self.cache.engine().resolve(self.cache.tenant(), key, Billing::Cache)
        {
            return Ok(Some(resolved.check_all(Some(session), calls)));
        }
        // Miss: observe the epoch, then ask the server (which bills the
        // authoritative hit or miss for this lookup).
        let epoch = self.cache.epoch();
        let Some(policy) = self.fetch_policy(task, context)? else {
            return Ok(None);
        };
        let (compiled, cached) = self.cache.install_if_epoch(task, context, &policy, epoch);
        if !cached {
            // An invalidation raced the fetch. The fetched policy is
            // still a legal basis for *this* batch — the check started
            // before the invalidation was acknowledged, the same window
            // an in-flight in-process check has — but it stayed out of
            // the cache, so the next check re-fetches fresh truth.
            self.fallbacks += 1;
        }
        let (engine, tenant) = (self.cache.engine(), self.cache.tenant());
        let check = |call| engine.check_compiled_session(tenant, &compiled, session, call);
        Ok(Some(calls.iter().map(check).collect()))
    }

    /// Compiles and installs `policy` for (task, context) on the
    /// *server*. The local cache is deliberately not pre-populated: the
    /// next check fetches it back, billing the same server-side hit the
    /// engine path bills — and if the install displaced a live policy,
    /// the resulting push has already evicted the stale local copy by
    /// the time this returns.
    ///
    /// # Errors
    ///
    /// Transport, protocol, or server errors.
    pub fn install(
        &mut self,
        task: &str,
        context: &TrustedContext,
        policy: &Policy,
    ) -> Result<InstallReceipt, ClientError> {
        let tenant = self.cache.tenant();
        let build = |_, cap| install_frame(tenant, task, context, policy, cap);
        self.core.submit_with(None, build, installed)?.wait()
    }

    /// Retrieves the source policy installed server-side for (task,
    /// context), if any. Bills the server-side lookup.
    ///
    /// # Errors
    ///
    /// Transport, protocol, or server errors.
    pub fn fetch_policy(
        &mut self,
        task: &str,
        context: &TrustedContext,
    ) -> Result<Option<Policy>, ClientError> {
        let tenant = self.cache.tenant();
        let build = |_, cap| fetch_policy_frame(tenant, task, context, cap);
        self.core.submit_with(None, build, policy_ok)?.wait()
    }

    /// Revokes every snapshot carrying `fingerprint` server-side. By
    /// the time this returns, the revocation has been pushed to — and
    /// acknowledged by — every subscriber, this client included: the
    /// local cache entry is already gone.
    ///
    /// # Errors
    ///
    /// Transport, protocol, or server errors.
    pub fn revoke(&mut self, fingerprint: u64) -> Result<u64, ClientError> {
        self.call(&Request::Revoke { tenant: self.cache.tenant().into(), fingerprint }, revoked)
    }

    /// Revoke-and-replace in one round-trip, server-side; the
    /// displacement push evicts any stale local copy before this
    /// returns.
    ///
    /// # Errors
    ///
    /// Transport, protocol, or server errors.
    pub fn reload(
        &mut self,
        task: &str,
        context: &TrustedContext,
        policy: &Policy,
    ) -> Result<ReloadReceipt, ClientError> {
        let tenant = self.cache.tenant();
        let build = |_, cap| reload_frame(tenant, task, context, policy, cap);
        self.core.submit_with(None, build, reloaded)?.wait()
    }

    /// Exports everything the tenant has installed server-side as a
    /// snapshot blob (see [`Client::snapshot`](crate::Client::snapshot)).
    ///
    /// # Errors
    ///
    /// Transport, protocol, or server errors.
    pub fn snapshot(&mut self) -> Result<SnapshotReceipt, ClientError> {
        self.call(&Request::Snapshot { tenant: self.cache.tenant().into() }, snapshot_ok)
    }

    /// Warm-starts the tenant server-side from snapshot bytes (see
    /// [`Client::restore`](crate::Client::restore)).
    ///
    /// # Errors
    ///
    /// Transport, protocol, or server errors.
    pub fn restore(&mut self, snapshot: Vec<u8>) -> Result<RestoreReceipt, ClientError> {
        self.call(&Request::Restore { tenant: self.cache.tenant().into(), snapshot }, restored)
    }

    /// Drops every policy installed for the tenant server-side; the
    /// flush push empties the local cache before this returns.
    ///
    /// # Errors
    ///
    /// Transport, protocol, or server errors.
    pub fn flush(&mut self) -> Result<u64, ClientError> {
        self.call(&Request::Flush { tenant: self.cache.tenant().into() }, flushed)
    }

    /// The server-side counters alone (lookups the server answered,
    /// decisions other connections billed, revocations, reloads).
    ///
    /// # Errors
    ///
    /// Transport, protocol, or server errors.
    pub fn server_stats(&mut self) -> Result<TenantCounters, ClientError> {
        self.call(&Request::Stats { tenant: self.cache.tenant().into() }, stats_ok)
            .map(|s| s.counters)
    }

    /// The locally-billed counters alone (cache hits and the decisions
    /// this client judged).
    pub fn local_counters(&self) -> TenantCounters {
        self.cache.counters()
    }

    /// The tenant's counters with the locally-answered share folded in:
    /// field-wise `server + local`. On a single-client workload this
    /// reconciles *exactly* with what an in-process engine would have
    /// billed for the same operations.
    ///
    /// # Errors
    ///
    /// Transport, protocol, or server errors.
    pub fn stats(&mut self) -> Result<TenantCounters, ClientError> {
        let server = self.server_stats()?;
        let local = self.local_counters();
        Ok(TenantCounters {
            hits: server.hits + local.hits,
            misses: server.misses + local.misses,
            checks: server.checks + local.checks,
            allowed: server.allowed + local.allowed,
            denied: server.denied + local.denied,
            reloads: server.reloads + local.reloads,
            revoked: server.revoked + local.revoked,
        })
    }

    /// Closes the connection (also done on drop). The demux task
    /// flushes the cache and exits; the server reaps the subscription.
    pub fn close(self) {}
}
