//! The event-driven policy-decision server: out-of-process enforcement
//! for the engine.
//!
//! `conseca-engine` made policy checks cheap inside one process; this
//! crate moves them behind a wire so *many* processes — the paper's §7
//! deployment at "millions of users" scale — can share one standing
//! reference monitor. A [`Server`] wraps an
//! [`Engine`](conseca_engine::Engine) in an event-driven core: every
//! connection is one cooperative task that owns its socket both ways,
//! run on the process-wide epoll event loop, on the thread that sees its
//! readiness — the thread budget is O(1), not O(connections). Each connection's
//! task **answers its checks itself**: it reads frames through a
//! buffer and evaluates a check together with the same-key checks
//! already buffered behind it under one
//! [`Engine::resolve`](conseca_engine::Engine::resolve),
//! so a pipelined agent amortises store lookups instead of multiplying
//! them, and no check waits in a shared queue. Mutations and admin
//! requests go through one dispatcher task, which answers one job at a
//! time; a connection's checks queue behind its own unanswered
//! mutation, so effects keep arrival order, and the dispatcher answers
//! each such check on its own. Only a connection coalesces checks.
//!
//! The protocol is a small length-prefixed binary format — fully
//! specified in `docs/serving.md`, implemented in [`wire`] — carrying
//! check / install / fetch / flush / stats / shutdown operations. Since
//! v9 a check names its policy key by a connection-local slot, bound
//! once per key, instead of carrying the whole trusted context; every
//! client below interns its keys and binds slots for itself.
//! Served verdicts are **byte-identical** to in-process
//! [`Engine::check`](conseca_engine::Engine::check) decisions
//! (differentially property-tested), because the server runs the same
//! engine entry points on the same compiled snapshots.
//!
//! Transports: plain TCP ([`Server::bind`]) for deployments, an
//! in-process [`DuplexStream`] pair ([`ServerHandle::connect`]) for
//! tests, benches, and single-process setups.
//!
//! Clients come in two connection cores, picked by call shape, and all
//! of them map responses through one shared table in [`client`]:
//!
//! - [`Client`] sends one request at a time and reads its answer on the
//!   caller's thread, with no handoff.
//! - [`AsyncClient`] keeps many requests in flight on one socket using
//!   the protocol v7 correlation envelope: submit-then-wait (or
//!   `.await`) with responses matched by id by a demux task on the
//!   reactor's event loop, which is exactly the shape that keeps the
//!   server's read buffers full of checks to coalesce. See [`aclient`].
//! - [`CachedClient`], for latency-sensitive callers, is an
//!   `AsyncClient` plus a local L1 of compiled policies, so after a
//!   one-time fetch each check runs at in-process engine speed. It
//!   subscribes to the server's **push invalidation channel**
//!   (protocol v5); its demux task applies each
//!   `PushRevoke`/`PushReload`/`PushFlush` to the L1 before acking it,
//!   and the server does not let the triggering mutation return before
//!   the ack. Losing the connection flushes the L1 (fail closed). See
//!   [`cache`].
//!
//! [`TenantClient`] binds a [`Client`] to a tenant, or wraps a
//! [`CachedClient`], behind one set of tenant-scoped operations. It is
//! the remote handle everything above the wire holds: the
//! [`RemoteSessionLayer`] (a drop-in pipeline policy layer) checks
//! through it, and `conseca-agent`'s `Agent::with_remote_engine` and
//! `Agent::with_cached_remote_engine` each make one the agent's backend.
//!
//! # Examples
//!
//! Serve, install a tenant's policy, screen a call, read the counters,
//! and shut down — all in-process:
//!
//! ```
//! use std::sync::Arc;
//!
//! use conseca_core::{ArgConstraint, Policy, PolicyEntry, TrustedContext};
//! use conseca_engine::Engine;
//! use conseca_serve::{ServeConfig, Server};
//! use conseca_shell::ApiCall;
//!
//! let server = Server::start(Arc::new(Engine::default()), ServeConfig::default());
//! let mut client = server.connect().expect("handshake");
//!
//! let mut policy = Policy::new("respond to urgent work emails");
//! policy.set("send_email", PolicyEntry::allow(
//!     vec![ArgConstraint::regex("alice").unwrap()],
//!     "urgent responses come from alice",
//! ));
//! let ctx = TrustedContext::for_user("alice");
//! client.install("acme", &policy.task, &ctx, &policy).expect("install");
//!
//! let call = ApiCall::new("email", "send_email",
//!     vec!["alice".into(), "bob@work.com".into(), "urgent".into(), "done".into()]);
//! let decision = client
//!     .check("acme", "respond to urgent work emails", &ctx, &call)
//!     .expect("transport")
//!     .expect("policy installed");
//! assert!(decision.allowed);
//!
//! let counters = client.stats("acme").expect("stats");
//! assert_eq!((counters.checks, counters.allowed), (1, 1));
//! server.shutdown();
//! ```
//!
//! Batched screening over the same connection costs one server-side
//! store lookup for the whole batch:
//!
//! ```
//! # use std::sync::Arc;
//! # use conseca_core::{Policy, PolicyEntry, TrustedContext};
//! # use conseca_engine::Engine;
//! # use conseca_serve::{ServeConfig, Server};
//! # use conseca_shell::ApiCall;
//! let server = Server::start(Arc::new(Engine::default()), ServeConfig::default());
//! let mut client = server.connect().expect("handshake");
//! let mut policy = Policy::new("triage");
//! policy.set("ls", PolicyEntry::allow_any("listing is fine"));
//! let ctx = TrustedContext::for_user("alice");
//! client.install("acme", "triage", &ctx, &policy).expect("install");
//!
//! let calls = vec![
//!     ApiCall::new("fs", "ls", vec!["/home/alice".into()]),
//!     ApiCall::new("fs", "rm", vec!["/home/alice/x".into()]),
//! ];
//! let decisions = client
//!     .check_all("acme", "triage", &ctx, &calls)
//!     .expect("transport")
//!     .expect("policy installed");
//! assert!(decisions[0].allowed);
//! assert!(!decisions[1].allowed); // rm is not in the policy: default deny
//! server.shutdown();
//! ```

pub mod aclient;
pub mod cache;
pub mod client;
pub mod daemon;
mod intern;
pub mod server;
pub mod session;
pub mod transport;
pub mod wire;

pub use aclient::{AsyncClient, Pending};
pub use cache::{CachedClient, LocalPolicyCache};
pub use client::{
    Client, ClientError, InstallReceipt, ReloadReceipt, RestoreReceipt, ServerStats,
    SnapshotReceipt,
};
pub use daemon::{
    ContextResolver, DaemonConfig, DaemonCounters, LifecycleDaemon, PolicyRegenerator,
};
pub use server::{ServeConfig, ServeMetrics, Server, ServerHandle};
pub use session::{RemoteSessionLayer, TenantClient};
pub use transport::{duplex, DuplexStream, Stream};
pub use wire::{Frame, FrameError, Request, Response, WireError, WireErrorCode, PROTOCOL_VERSION};

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use conseca_core::{ArgConstraint, Policy, PolicyEntry, TrustedContext};
    use conseca_engine::Engine;
    use conseca_shell::ApiCall;

    use crate::wire::code;
    use crate::{ClientError, ServeConfig, Server};

    fn policy() -> Policy {
        let mut p = Policy::new("t");
        p.set(
            "send_email",
            PolicyEntry::allow(vec![ArgConstraint::regex("^alice$").unwrap()], "alice sends"),
        );
        p.set("delete_email", PolicyEntry::deny("no deletions"));
        p
    }

    fn call(name: &str, args: &[&str]) -> ApiCall {
        ApiCall::new("test", name, args.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn install_check_stats_flush_roundtrip() {
        let engine = Arc::new(Engine::default());
        let server = Server::start(Arc::clone(&engine), ServeConfig::default());
        let mut client = server.connect().unwrap();
        let ctx = TrustedContext::for_user("alice");

        // No policy yet: the key misses.
        assert_eq!(client.check("acme", "t", &ctx, &call("ls", &[])).unwrap(), None);

        let receipt = client.install("acme", "t", &ctx, &policy()).unwrap();
        assert_eq!(receipt.fingerprint, policy().fingerprint());
        assert_eq!(receipt.entries, 2);

        let allowed =
            client.check("acme", "t", &ctx, &call("send_email", &["alice"])).unwrap().unwrap();
        assert!(allowed.allowed);
        let denied =
            client.check("acme", "t", &ctx, &call("delete_email", &["1"])).unwrap().unwrap();
        assert!(!denied.allowed);

        // Served decisions equal in-process decisions from the same engine.
        let direct = engine.check("acme", "t", &ctx, &call("send_email", &["alice"])).unwrap();
        assert_eq!(direct, allowed);

        // fetch_policy hands the source policy back.
        let fetched = client.fetch_policy("acme", "t", &ctx).unwrap().unwrap();
        assert_eq!(fetched, policy());
        assert_eq!(client.fetch_policy("acme", "other", &ctx).unwrap(), None);

        // Two served checks + the direct comparison check above.
        let counters = client.stats("acme").unwrap();
        assert_eq!(counters.checks, 3);
        assert_eq!((counters.allowed, counters.denied), (2, 1));

        assert_eq!(client.flush("acme").unwrap(), 1);
        assert_eq!(client.check("acme", "t", &ctx, &call("ls", &[])).unwrap(), None);
        assert_eq!(client.flush("acme").unwrap(), 0);
        server.shutdown();
    }

    #[test]
    fn check_all_preserves_call_order() {
        let server = Server::start(Arc::new(Engine::default()), ServeConfig::default());
        let mut client = server.connect().unwrap();
        let ctx = TrustedContext::for_user("alice");
        client.install("acme", "t", &ctx, &policy()).unwrap();
        let calls = vec![
            call("send_email", &["alice"]),
            call("send_email", &["eve"]),
            call("ls", &[]),
            call("delete_email", &["1"]),
        ];
        let decisions = client.check_all("acme", "t", &ctx, &calls).unwrap().unwrap();
        assert_eq!(
            decisions.iter().map(|d| d.allowed).collect::<Vec<_>>(),
            vec![true, false, false, false]
        );
        assert_eq!(client.check_all("acme", "missing", &ctx, &calls).unwrap(), None);
        server.shutdown();
    }

    #[test]
    fn tcp_and_duplex_serve_the_same_engine() {
        let engine = Arc::new(Engine::default());
        let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0", ServeConfig::default())
            .expect("bind loopback");
        let addr = server.local_addr().unwrap().to_string();
        let ctx = TrustedContext::for_user("alice");

        let mut tcp = crate::Client::connect(&addr).unwrap();
        tcp.install("acme", "t", &ctx, &policy()).unwrap();
        let over_tcp =
            tcp.check("acme", "t", &ctx, &call("send_email", &["alice"])).unwrap().unwrap();

        let mut inproc = server.connect().unwrap();
        let over_duplex =
            inproc.check("acme", "t", &ctx, &call("send_email", &["alice"])).unwrap().unwrap();
        assert_eq!(over_tcp, over_duplex);
        assert_eq!(server.engine().tenant_counters("acme").checks, 2);
        tcp.close();
        server.shutdown();
    }

    #[test]
    fn client_shutdown_request_stops_new_connections_only() {
        let server = Server::start(Arc::new(Engine::default()), ServeConfig::default());
        let mut client = server.connect().unwrap();
        let ctx = TrustedContext::for_user("alice");
        client.install("acme", "t", &ctx, &policy()).unwrap();
        client.shutdown_server().unwrap();
        assert!(server.is_shutting_down());
        // The existing connection keeps serving...
        let decision =
            client.check("acme", "t", &ctx, &call("send_email", &["alice"])).unwrap().unwrap();
        assert!(decision.allowed);
        // ...but new connections are refused.
        match server.connect() {
            Err(ClientError::Server { code: c, .. }) => assert_eq!(c, code::SHUTTING_DOWN),
            other => panic!("expected SHUTTING_DOWN, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn cached_client_answers_locally_after_one_fetch() {
        let engine = Arc::new(Engine::default());
        let server = Server::start(Arc::clone(&engine), ServeConfig::default());
        let mut cached = crate::CachedClient::over(server.connect_stream().unwrap(), "acme")
            .expect("subscribe handshake");
        let ctx = TrustedContext::for_user("alice");

        // No policy anywhere: miss (billed server-side via the fetch).
        assert_eq!(cached.check("t", &ctx, &call("ls", &[])).unwrap(), None);

        cached.install("t", &ctx, &policy()).unwrap();
        // First check fetches + installs locally; the rest hit the L1.
        for _ in 0..3 {
            let d = cached.check("t", &ctx, &call("send_email", &["alice"])).unwrap().unwrap();
            assert!(d.allowed);
        }
        assert_eq!(cached.cache().policies(), 1);
        // Decisions after the fetch were billed locally, not on the server.
        assert_eq!(engine.tenant_counters("acme").checks, 0);
        assert_eq!(cached.local_counters().checks, 3);
        // Merged stats reconcile with what one in-process engine would
        // bill: 4 lookups (2 misses: the pre-install check + the first
        // fetch... the fetch after install is a hit), 3 decisions.
        let merged = cached.stats().unwrap();
        assert_eq!((merged.checks, merged.allowed, merged.denied), (3, 3, 0));
        assert_eq!(merged.hits + merged.misses, 4);

        // A server-side revocation is pushed: by the time revoke()
        // returns, the local cache entry is gone.
        let removed = cached.revoke(policy().fingerprint()).unwrap();
        assert_eq!(removed, 1);
        assert_eq!(cached.cache().policies(), 0);
        assert_eq!(cached.check("t", &ctx, &call("ls", &[])).unwrap(), None);
        server.shutdown();
    }

    #[test]
    fn cached_client_disconnect_flushes_the_cache() {
        let server = Server::start(Arc::new(Engine::default()), ServeConfig::default());
        let mut cached = crate::CachedClient::over(server.connect_stream().unwrap(), "acme")
            .expect("subscribe handshake");
        let ctx = TrustedContext::for_user("alice");
        cached.install("t", &ctx, &policy()).unwrap();
        assert!(cached.check("t", &ctx, &call("send_email", &["alice"])).unwrap().is_some());
        assert_eq!(cached.cache().policies(), 1);

        // Server dies; the push channel is gone, so the cache fails
        // closed: flushed, and checks report the disconnect.
        server.shutdown();
        for _ in 0..50 {
            if cached.cache().policies() == 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert_eq!(cached.cache().policies(), 0);
        let after = cached.check("t", &ctx, &call("send_email", &["alice"]));
        assert!(matches!(after, Err(ClientError::Closed)), "got {after:?}");
    }

    #[test]
    fn shutdown_is_idempotent_and_joins_cleanly() {
        let server = Server::start(Arc::new(Engine::default()), ServeConfig::default());
        let client = server.connect().unwrap();
        drop(client); // client vanishes first
        server.shutdown();

        // And the other order: server goes first, client sees errors.
        let server = Server::start(Arc::new(Engine::default()), ServeConfig::default());
        let mut client = server.connect().unwrap();
        server.shutdown();
        let ctx = TrustedContext::for_user("alice");
        assert!(client.check("acme", "t", &ctx, &call("ls", &[])).is_err());
    }
}
