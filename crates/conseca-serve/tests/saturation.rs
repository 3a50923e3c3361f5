//! Load-shape tests for the event-driven serving core: connection
//! counts far beyond the thread budget, connection churn over TCP, deep
//! pipelines on one socket, adversarially reordered responses against
//! the async client's correlation layer, a server's error-then-close
//! reaching every request still in flight, and cached subscribers that
//! cost no threads yet still hold the push-ack barrier.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use conseca_core::{ArgConstraint, Policy, PolicyEntry, TrustedContext};
use conseca_engine::Engine;
use conseca_serve::wire::{read_frame, unwrap_tagged, wrap_tagged, Request, Response};
use conseca_serve::{
    transport::duplex, AsyncClient, CachedClient, Client, ClientError, ServeConfig, Server,
};
use conseca_shell::ApiCall;

fn policy() -> Policy {
    let mut p = Policy::new("t");
    p.set(
        "send_email",
        PolicyEntry::allow(vec![ArgConstraint::regex("^alice$").unwrap()], "alice sends"),
    );
    p
}

fn call(args: &[&str]) -> ApiCall {
    ApiCall::new("test", "send_email", args.iter().map(|s| s.to_string()).collect())
}

fn ctx() -> TrustedContext {
    TrustedContext::for_user("alice")
}

/// How many OS threads this process is running right now.
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map(|entries| entries.count()).unwrap_or(0)
}

#[test]
fn a_thousand_connections_cost_no_threads_and_counters_reconcile_exactly() {
    const CONNS: usize = 1024;
    const CHECKS_PER_CONN: usize = 2;
    let engine = Arc::new(Engine::default());
    let server = Server::start(Arc::clone(&engine), ServeConfig::default());
    {
        let mut setup = server.connect().unwrap();
        setup.install("acme", "t", &ctx(), &policy()).unwrap();
    }
    let context = ctx();
    let baseline = thread_count();
    assert!(baseline > 0, "/proc/self/task must be readable for this test");

    // Open every connection up front and hold them all: a connection is
    // two parked tasks, not a thread pair.
    let mut clients = Vec::with_capacity(CONNS);
    for _ in 0..CONNS {
        clients.push(server.connect().expect("connect"));
    }
    let with_all_open = thread_count();
    assert!(
        with_all_open <= baseline + 4,
        "{CONNS} open connections grew the thread count from {baseline} to {with_all_open}; \
         the serving core must be O(1) threads, not O(connections)"
    );

    // Every connection does real work while all the others stay open,
    // and every decision is billed exactly once.
    let mut allowed = 0u64;
    let mut denied = 0u64;
    for (i, client) in clients.iter_mut().enumerate() {
        for j in 0..CHECKS_PER_CONN {
            let args: &[&str] = if (i + j) % 2 == 0 { &["alice"] } else { &["eve"] };
            let decision =
                client.check("acme", "t", &context, &call(args)).expect("transport").expect("hit");
            if decision.allowed {
                allowed += 1;
            } else {
                denied += 1;
            }
        }
    }
    let total = (CONNS * CHECKS_PER_CONN) as u64;
    assert_eq!(allowed + denied, total);
    assert_eq!(allowed, total / 2);
    let counters = engine.tenant_counters("acme");
    assert_eq!(counters.checks, total, "every check billed exactly once");
    assert_eq!((counters.allowed, counters.denied), (allowed, denied));

    drop(clients);
    server.shutdown();
}

#[test]
fn cached_subscribers_cost_no_threads_and_a_revoke_still_reaches_every_cache() {
    const SUBSCRIBERS: usize = 64;
    let config = ServeConfig::default();
    let ack_timeout = config.push_ack_timeout;
    let server = Server::start(Arc::new(Engine::default()), config);
    let mut admin = server.connect().unwrap();
    admin.install("acme", "t", &ctx(), &policy()).unwrap();
    // The reactor's loop thread, which runs every client demux task,
    // exists before the baseline, so the bound below measures what each
    // subscriber costs.
    drop(AsyncClient::over(server.connect_stream().unwrap()).expect("handshake"));
    let baseline = thread_count();
    assert!(baseline > 0, "/proc/self/task must be readable for this test");

    let mut caches: Vec<CachedClient> = (0..SUBSCRIBERS)
        .map(|_| CachedClient::over(server.connect_stream().unwrap(), "acme").expect("subscribe"))
        .collect();
    for cached in &mut caches {
        let decision = cached.check("t", &ctx(), &call(&["alice"])).expect("check");
        assert!(decision.expect("installed").allowed);
        assert_eq!(cached.cache().policies(), 1, "the check warms the L1");
    }
    let with_all_subscribed = thread_count();
    assert!(
        with_all_subscribed <= baseline + 4,
        "{SUBSCRIBERS} cached clients grew the thread count from {baseline} to \
         {with_all_subscribed}; a cached client must not own a thread"
    );

    // The barrier: once the revoke returns, every subscriber has applied
    // the push, so no cache can still answer from the revoked policy.
    let started = Instant::now();
    assert_eq!(admin.revoke("acme", policy().fingerprint()).unwrap(), 1);
    let took = started.elapsed();
    for (i, cached) in caches.iter().enumerate() {
        assert_eq!(cached.cache().policies(), 0, "subscriber {i} still caches the policy");
    }
    assert!(
        took < ack_timeout / 4,
        "the revoke took {took:?}: some subscriber's ack ran into the {ack_timeout:?} timeout"
    );

    drop(caches);
    server.shutdown();
}

#[test]
fn tcp_connection_churn_never_strands_a_new_connection() {
    // A closed connection's descriptor number is soon reused by `accept`;
    // tearing the old connection down must never touch the new one's
    // reactor registration. Each round connects, checks and drops.
    const ROUNDS: usize = 200;
    let server = Server::bind(Arc::new(Engine::default()), "127.0.0.1:0", ServeConfig::default())
        .expect("bind loopback");
    let addr = server.local_addr().unwrap().to_string();
    server.connect().unwrap().install("acme", "t", &ctx(), &policy()).unwrap();
    let (done_tx, done_rx) = mpsc::channel();
    thread::spawn(move || {
        for round in 0..ROUNDS {
            let mut client = Client::connect(&addr).expect("connect");
            let decision = client.check("acme", "t", &ctx(), &call(&["alice"])).expect("check");
            assert!(decision.expect("installed").allowed, "round {round}");
        }
        let _ = done_tx.send(());
    });
    match done_rx.recv_timeout(Duration::from_secs(60)) {
        Ok(()) => server.shutdown(),
        Err(RecvTimeoutError::Disconnected) => panic!("the churn loop failed"),
        Err(RecvTimeoutError::Timeout) => {
            // The stranded connection's tasks never see their close edge,
            // so a shutdown would hang as well: leave the server be.
            std::mem::forget(server);
            panic!("a connect → check → drop round hung");
        }
    }
}

#[test]
fn a_pipelined_client_sustains_hundreds_in_flight_on_one_socket() {
    const IN_FLIGHT: usize = 256;
    let server = Server::start(Arc::new(Engine::default()), ServeConfig::default());
    let client = AsyncClient::over(server.connect_stream().unwrap()).expect("handshake");
    let context = ctx();
    client.install("acme", "t", &context, &policy()).expect("submit").wait().expect("install");

    // All submitted before the first wait: one socket, IN_FLIGHT
    // correlated requests outstanding at once.
    let pending: Vec<_> = (0..IN_FLIGHT)
        .map(|i| {
            let args: &[&str] = if i % 2 == 0 { &["alice"] } else { &["eve"] };
            (i, client.check("acme", "t", &context, &call(args)).expect("submit"))
        })
        .collect();
    for (i, p) in pending {
        let decision = p.wait().expect("verdict").expect("policy installed");
        assert_eq!(
            decision.allowed,
            i % 2 == 0,
            "response for request {i} was matched to the wrong request"
        );
    }
    server.shutdown();
}

#[test]
fn correlation_survives_adversarially_reordered_responses() {
    // A mock server that answers out of order on purpose: it buffers
    // every window of requests and replies to it *reversed*. Each
    // request carries a distinct value (the tenant name) that its
    // response echoes (as Flushed.removed), so any mismatched
    // correlation is caught exactly.
    const WINDOW: usize = 16;
    const REQUESTS: usize = 512; // a multiple of WINDOW

    let (client_end, server_end) = duplex();
    let mock = std::thread::spawn(move || {
        let mut stream = server_end;
        let max = conseca_serve::wire::DEFAULT_MAX_FRAME_LEN;
        // Bare handshake, exactly like the real server.
        let hello = read_frame(&mut stream, max).unwrap().expect("hello");
        assert!(matches!(Request::decode(&hello).unwrap(), Request::Hello { .. }));
        conseca_serve::wire::write_frame(
            &mut stream,
            &Response::HelloOk { version: conseca_serve::PROTOCOL_VERSION }.encode(),
            max,
        )
        .unwrap();
        let mut window = Vec::with_capacity(WINDOW);
        while let Ok(Some(frame)) = read_frame(&mut stream, max) {
            let (id, inner) = unwrap_tagged(&frame).expect("an enveloped request");
            let Request::Flush { tenant } = Request::decode(&inner).unwrap() else {
                panic!("the fuzz driver only sends Flush")
            };
            let value: u64 = tenant.parse().expect("numeric tenant");
            window.push((id, value));
            if window.len() == WINDOW {
                for (id, value) in window.drain(..).rev() {
                    let reply = wrap_tagged(id, &Response::Flushed { removed: value }.encode());
                    conseca_serve::wire::write_frame(&mut stream, &reply, max).unwrap();
                }
            }
        }
        assert!(window.is_empty(), "the client closed with an unanswered partial window");
    });

    let client = AsyncClient::over(client_end).expect("handshake");
    let pending: Vec<_> =
        (0..REQUESTS as u64).map(|i| (i, client.flush(&i.to_string()).expect("submit"))).collect();
    for (i, p) in pending {
        assert_eq!(p.wait().expect("response"), i, "response routed to the wrong request");
    }
    client.close();
    mock.join().expect("mock server");
}

#[test]
fn an_error_then_close_fails_every_pending_request() {
    // The server's answer to an oversized frame: one bare error, then the
    // close, written back to back. The mock plays that server once every
    // pipelined request has arrived, so the rest are still pending when
    // the close lands. The first request gets the error, and every later
    // one must fail `Closed` promptly rather than hang.
    const CAP: u32 = 256;
    const LATER: usize = 8;
    let (client_end, server_end) = duplex();
    let mock = std::thread::spawn(move || {
        let mut stream = server_end;
        let max = conseca_serve::wire::DEFAULT_MAX_FRAME_LEN;
        let hello = read_frame(&mut stream, max).unwrap().expect("hello");
        assert!(matches!(Request::decode(&hello).unwrap(), Request::Hello { .. }));
        conseca_serve::wire::write_frame(
            &mut stream,
            &Response::HelloOk { version: conseca_serve::PROTOCOL_VERSION }.encode(),
            max,
        )
        .unwrap();
        // The key's first check goes out behind its slot's bind.
        let bind = read_frame(&mut stream, max).unwrap().expect("the key's bind");
        let (_, bind) = conseca_serve::wire::unwrap_tagged(&bind).unwrap();
        assert!(matches!(Request::decode(&bind).unwrap(), Request::BindKey { slot: 0, .. }));
        let oversized = read_frame(&mut stream, max).unwrap().expect("the oversized request");
        assert!(oversized.payload.len() + 1 > CAP as usize);
        for _ in 0..LATER {
            read_frame(&mut stream, max).unwrap().expect("a later request");
        }
        let error = Response::Error {
            code: conseca_serve::wire::code::FRAME_TOO_LARGE,
            message: format!("frame exceeds {CAP} bytes"),
        };
        conseca_serve::wire::write_frame(&mut stream, &error.encode(), max).unwrap();
        drop(stream);
    });

    let client = AsyncClient::over(client_end).expect("handshake");
    let big = vec!["a".repeat(CAP as usize)];
    let first = client
        .check("acme", "t", &ctx(), &ApiCall::new("test", "send_email", big))
        .expect("submit");
    let later: Vec<_> = (0..LATER)
        .map(|_| client.check("acme", "t", &ctx(), &call(&["alice"])).expect("submit"))
        .collect();
    let (done_tx, done_rx) = mpsc::channel();
    thread::spawn(move || {
        let first = first.wait();
        let later: Vec<_> = later.into_iter().map(|p| p.wait()).collect();
        let _ = done_tx.send((first, later));
    });
    let (first, later) = done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("pending requests must fail once the server closes");
    match first {
        Err(ClientError::Server { code, .. }) => {
            assert_eq!(code, conseca_serve::wire::code::FRAME_TOO_LARGE)
        }
        other => panic!("expected the server's error, got {other:?}"),
    }
    for outcome in later {
        assert!(matches!(outcome, Err(ClientError::Closed)), "got {outcome:?}");
    }
    mock.join().expect("mock server");
}
