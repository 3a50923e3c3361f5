//! Isolation between connections and ordering within one: a mutation
//! wedged on the dispatcher must not stall another tenant's checks, and
//! a connection's own checks must still queue behind its unanswered
//! mutation without the connection ever waiting on the dispatcher.

use std::io::{Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

use conseca_core::{
    ArgConstraint, Policy, PolicyEntry, Predicate, TrajectoryPolicy, TrustedContext,
};
use conseca_engine::{Billing, CompiledPolicy, Engine, EngineKey, SessionState};
use conseca_serve::wire::{
    read_frame, unwrap_tagged, wrap_tagged, write_frame, Request, Response, DEFAULT_MAX_FRAME_LEN,
};
use conseca_serve::{AsyncClient, CachedClient, ServeConfig, Server};
use conseca_shell::ApiCall;

fn ctx() -> TrustedContext {
    TrustedContext::for_user("alice")
}

fn policy() -> Policy {
    let mut p = Policy::new("t");
    p.set("send_email", PolicyEntry::allow_any("the task sends"));
    p
}

fn call() -> ApiCall {
    ApiCall::new("email", "send_email", vec!["alice".into()])
}

/// Raw-stream handshake + subscribe, for a subscriber that then never
/// reads (and so never acks) anything.
fn subscribe(stream: &mut (impl Read + Write), tenant: &str) {
    for request in [
        Request::Hello { version: conseca_serve::PROTOCOL_VERSION },
        Request::Subscribe { tenant: tenant.into() },
    ] {
        write_frame(stream, &request.encode(), DEFAULT_MAX_FRAME_LEN).unwrap();
        let frame = read_frame(stream, 1 << 20).unwrap().expect("a response");
        assert!(matches!(
            Response::decode(&frame).unwrap(),
            Response::HelloOk { .. } | Response::Subscribed
        ));
    }
}

#[test]
fn a_wedged_revoke_on_one_tenant_does_not_stall_another_tenants_checks() {
    let config =
        ServeConfig { push_ack_timeout: Duration::from_millis(1500), ..ServeConfig::default() };
    let server = Server::start(Arc::new(Engine::default()), config);
    let context = ctx();
    let mut admin = server.connect().unwrap();
    admin.install("tenant-a", "t", &context, &policy()).unwrap();
    admin.install("tenant-b", "t", &context, &policy()).unwrap();
    let mut wedged = server.connect_stream().unwrap();
    subscribe(&mut wedged, "tenant-a");
    let mut checker = server.connect().unwrap();
    assert!(checker.check("tenant-b", "t", &context, &call()).unwrap().is_some());

    std::thread::scope(|scope| {
        let revoker = scope.spawn(|| {
            let mut client = server.connect().unwrap();
            client.revoke("tenant-a", policy().fingerprint()).unwrap()
        });
        // The push reaching the subscriber means the revoke is now
        // waiting for an ack that never comes.
        let push = read_frame(&mut wedged, 1 << 20).unwrap().expect("the revoke's push");
        assert!(matches!(Response::decode(&push).unwrap(), Response::PushRevoke { .. }));
        for _ in 0..10 {
            let start = Instant::now();
            let decision = checker.check("tenant-b", "t", &context, &call()).unwrap();
            let took = start.elapsed();
            assert!(decision.expect("tenant B's policy").allowed);
            assert!(took < Duration::from_millis(100), "tenant B's check took {took:?}");
        }
        assert!(!revoker.is_finished(), "the checks must overlap the wedged revoke");
        // The revoke still completes, by force-closing the subscriber.
        assert_eq!(revoker.join().unwrap(), 1);
    });
    assert!(read_frame(&mut wedged, 1 << 20).unwrap().is_none(), "the subscriber was closed");
    server.shutdown();
}

#[test]
fn a_wedged_revoke_on_one_tenant_does_not_stall_another_tenants_fetches_or_stats() {
    // Reads are answered on the connection task, not queued behind the
    // dispatcher's wedged revoke; before that they waited out the ack
    // timeout.
    let config =
        ServeConfig { push_ack_timeout: Duration::from_millis(1500), ..ServeConfig::default() };
    let server = Server::start(Arc::new(Engine::default()), config);
    let context = ctx();
    let mut admin = server.connect().unwrap();
    admin.install("tenant-a", "t", &context, &policy()).unwrap();
    admin.install("tenant-b", "t", &context, &policy()).unwrap();
    let mut wedged = server.connect_stream().unwrap();
    subscribe(&mut wedged, "tenant-a");
    let mut fetcher = server.connect().unwrap();
    let mut reader = server.connect().unwrap();

    // One connection pipelines a revoke that wedges, an install queued
    // behind it, and a fetch of what that install installs: were the
    // fetch to overtake its own connection's mutations, it would find
    // nothing.
    let mut raw = server.connect_stream().unwrap();
    send(&mut raw, Request::Hello { version: conseca_serve::PROTOCOL_VERSION });
    assert!(matches!(recv(&mut raw), Response::HelloOk { .. }));
    let start = Instant::now();
    let (tenant, task) = (String::from("tenant-c"), String::from("t"));
    for request in [
        Request::Revoke { tenant: "tenant-a".into(), fingerprint: policy().fingerprint() },
        Request::Install {
            tenant: tenant.clone(),
            task: task.clone(),
            context: context.clone(),
            policy: policy(),
        },
        Request::FetchPolicy { tenant, task, context: context.clone() },
    ] {
        send(&mut raw, request);
    }
    // The push reaching the subscriber means the revoke is now waiting
    // for an ack that never comes.
    let push = read_frame(&mut wedged, 1 << 20).unwrap().expect("the revoke's push");
    assert!(matches!(Response::decode(&push).unwrap(), Response::PushRevoke { .. }));
    for _ in 0..10 {
        let started = Instant::now();
        let fetched = fetcher.fetch_policy("tenant-b", "t", &context).unwrap();
        let took = started.elapsed();
        assert_eq!(fetched, Some(policy()));
        assert!(took < Duration::from_millis(100), "tenant B's fetch took {took:?}");
        let started = Instant::now();
        let stats = reader.stats("tenant-b").unwrap();
        let took = started.elapsed();
        assert!(stats.hits > 0);
        assert!(took < Duration::from_millis(100), "tenant B's stats took {took:?}");
    }
    assert!(start.elapsed() < Duration::from_millis(1500), "the reads must overlap the wedge");

    assert!(matches!(recv(&mut raw), Response::Revoked { removed: 1 }));
    assert!(start.elapsed() >= Duration::from_millis(1500), "the revoke was wedged");
    assert!(matches!(recv(&mut raw), Response::Installed { .. }));
    assert_eq!(
        recv(&mut raw),
        Response::PolicyOk { policy: Some(policy()) },
        "the fetch ran after its connection's install"
    );
    assert!(read_frame(&mut wedged, 1 << 20).unwrap().is_none(), "the subscriber was closed");
    server.shutdown();
}

#[test]
fn a_subscribed_connection_pipelines_a_check_behind_its_own_revoke() {
    // The check is queued behind the revoke, and the revoke waits for
    // this very connection's push ack: the connection must keep reading
    // while its check waits, or the two deadlock until the ack timeout.
    let config =
        ServeConfig { push_ack_timeout: Duration::from_secs(10), ..ServeConfig::default() };
    let server = Server::start(Arc::new(Engine::default()), config);
    let context = ctx();
    let client = AsyncClient::over(server.connect_stream().unwrap()).unwrap();
    client.install("acme", "t", &context, &policy()).unwrap().wait().unwrap();
    let subscribed = client.request(&Request::Subscribe { tenant: "acme".into() }).unwrap();
    assert!(matches!(subscribed.wait().unwrap(), Response::Subscribed));

    let start = Instant::now();
    let revoke = client
        .request(&Request::Revoke { tenant: "acme".into(), fingerprint: policy().fingerprint() })
        .unwrap();
    let check = client.check("acme", "t", &context, &call()).unwrap();
    assert!(matches!(revoke.wait().unwrap(), Response::Revoked { removed: 1 }));
    assert_eq!(check.wait().unwrap(), None, "the check runs after the revoke");
    let took = start.elapsed();
    assert!(took < Duration::from_secs(5), "the pair took {took:?}: the ack was not read");
    // Acked, not force-closed: the connection still serves.
    assert!(client.check("acme", "t", &context, &call()).unwrap().wait().unwrap().is_none());
    server.shutdown();
}

#[test]
fn checks_queued_behind_a_wedged_revoke_keep_their_session_and_bill_one_lookup_each() {
    // The revoke waits out the ack timeout on a subscriber that never
    // reads, so every check pipelined behind it is answered by the
    // dispatcher, one request at a time.
    let config =
        ServeConfig { push_ack_timeout: Duration::from_millis(300), ..ServeConfig::default() };
    let engine = Arc::new(Engine::default());
    let server = Server::start(Arc::clone(&engine), config);
    let context = ctx();
    let mut limited = policy();
    limited.set_trajectory(TrajectoryPolicy::new().limit("send_email", 2, "two sends a session"));
    let mut decoy = Policy::new("decoy");
    decoy.set("send_email", PolicyEntry::deny("the decoy never sends"));
    engine.install("acme", "t", &context, &limited).unwrap();
    engine.install("acme", "decoy", &context, &decoy).unwrap();
    let mut wedged = server.connect_stream().unwrap();
    subscribe(&mut wedged, "acme");
    let hits_before = engine.tenant_counters("acme").hits;

    let client = AsyncClient::over(server.connect_stream().unwrap()).unwrap();
    let revoke = client
        .request(&Request::Revoke { tenant: "acme".into(), fingerprint: decoy.fingerprint() })
        .unwrap();
    let checks: Vec<_> =
        (0..3).map(|_| client.check("acme", "t", &context, &call()).unwrap()).collect();
    let batch = client.check_all("acme", "t", &context, &[call(), call()]).unwrap();
    assert!(matches!(revoke.wait().unwrap(), Response::Revoked { removed: 1 }));
    let mut served: Vec<_> = checks.into_iter().map(|c| c.wait().unwrap().unwrap()).collect();
    served.extend(batch.wait().unwrap().unwrap());

    let allowed: Vec<bool> = served.iter().map(|d| d.allowed).collect();
    assert_eq!(allowed, [true, true, false, false, false]);
    let oracle = Engine::default();
    oracle.install("acme", "t", &context, &limited).unwrap();
    let key = EngineKey::new("acme", "t", &context);
    let expected = oracle
        .resolve("acme", &key, Billing::Authoritative)
        .unwrap()
        .check_all(Some(&mut SessionState::default()), &vec![call(); 5]);
    assert_eq!(served, expected, "one session, advanced in arrival order");
    assert_eq!(engine.tenant_counters("acme").hits - hits_before, 4, "one lookup per request");
    server.shutdown();
}

fn send(stream: &mut impl Write, request: Request) {
    write_frame(stream, &request.encode(), DEFAULT_MAX_FRAME_LEN).unwrap();
}

fn recv(stream: &mut impl Read) -> Response {
    Response::decode(&read_frame(stream, 1 << 20).unwrap().expect("a frame")).unwrap()
}

/// Revokes one policy in process and reports when the revoke returned;
/// the revoke's push fan-out runs on the spawned thread.
fn revoke_in_background<'s>(
    scope: &'s std::thread::Scope<'s, '_>,
    engine: &'s Engine,
    tenant: &'s str,
    fingerprint: u64,
) -> std::thread::ScopedJoinHandle<'s, Instant> {
    scope.spawn(move || {
        assert_eq!(engine.revoke_fingerprint(tenant, fingerprint).unwrap(), 1);
        Instant::now()
    })
}

/// A subscriber re-Subscribes (to `second_tenant`) while push 1 is
/// unacked, then acks it. The push `seq` belongs to the connection, so
/// the ack must release the first revoke, and the second revoke's push
/// must be seq 2 and hold that revoke until it is acked in turn.
fn resubscribe_keeps_the_push_sequence(second_tenant: &str) {
    let config = ServeConfig { push_ack_timeout: Duration::from_secs(5), ..ServeConfig::default() };
    let engine = Arc::new(Engine::default());
    let server = Server::start(Arc::clone(&engine), config);
    let first = policy();
    let mut second = Policy::new("u");
    second.set("send_email", PolicyEntry::deny("the second task never sends"));
    engine.install("acme", "t", &ctx(), &first).unwrap();
    engine.install(second_tenant, "u", &ctx(), &second).unwrap();
    let mut subscriber = server.connect_stream().unwrap();
    subscribe(&mut subscriber, "acme");

    std::thread::scope(|scope| {
        let first_revoke = revoke_in_background(scope, &engine, "acme", first.fingerprint());
        assert!(matches!(recv(&mut subscriber), Response::PushRevoke { seq: 1, .. }));
        send(&mut subscriber, Request::Subscribe { tenant: second_tenant.into() });
        assert!(matches!(recv(&mut subscriber), Response::Subscribed));
        send(&mut subscriber, Request::PushAck { seq: 1 });
        let acked = Instant::now();
        let returned = first_revoke.join().unwrap();
        let took = returned.saturating_duration_since(acked);
        assert!(took < Duration::from_secs(1), "the acked revoke returned {took:?} after its ack");

        let second_revoke =
            revoke_in_background(scope, &engine, second_tenant, second.fingerprint());
        std::thread::sleep(Duration::from_millis(200));
        assert!(!second_revoke.is_finished(), "the second revoke must wait for its own ack");
        assert!(matches!(recv(&mut subscriber), Response::PushRevoke { seq: 2, .. }));
        let acked = Instant::now();
        send(&mut subscriber, Request::PushAck { seq: 2 });
        assert!(second_revoke.join().unwrap() >= acked, "returned before its push was acked");
    });
    // Both revokes were acked, so neither force-closed the connection.
    send(&mut subscriber, Request::Subscribe { tenant: "acme".into() });
    assert!(matches!(recv(&mut subscriber), Response::Subscribed));
    server.shutdown();
}

#[test]
fn a_resubscribe_to_the_same_tenant_keeps_the_push_sequence() {
    resubscribe_keeps_the_push_sequence("acme");
}

#[test]
fn a_resubscribe_to_another_tenant_keeps_the_push_sequence() {
    resubscribe_keeps_the_push_sequence("globex");
}

#[test]
fn a_rebound_slot_never_changes_a_check_already_queued_behind_a_wedged_revoke() {
    // Slot 0 names task "t" (allowed) when the first keyed check is read
    // and task "u" (denied) when the second is; both wait behind the
    // wedged revoke, and each is judged under the key its slot named
    // when it was read, not when the dispatcher reaches it.
    let config =
        ServeConfig { push_ack_timeout: Duration::from_millis(300), ..ServeConfig::default() };
    let engine = Arc::new(Engine::default());
    let server = Server::start(Arc::clone(&engine), config);
    let context = ctx();
    let mut denied = Policy::new("u");
    denied.set("send_email", PolicyEntry::deny("task u never sends"));
    let mut decoy = Policy::new("decoy");
    decoy.set("send_email", PolicyEntry::deny("the decoy never sends"));
    engine.install("acme", "t", &context, &policy()).unwrap();
    engine.install("acme", "u", &context, &denied).unwrap();
    engine.install("acme", "decoy", &context, &decoy).unwrap();
    let mut wedged = server.connect_stream().unwrap();
    subscribe(&mut wedged, "acme");

    let mut raw = server.connect_stream().unwrap();
    send(&mut raw, Request::Hello { version: conseca_serve::PROTOCOL_VERSION });
    assert!(matches!(recv(&mut raw), Response::HelloOk { .. }));
    let bind = |task: &str| Request::BindKey {
        slot: 0,
        tenant: "acme".into(),
        task: task.into(),
        context: context.clone(),
    };
    let check = || Request::CheckKeyed { slot: 0, calls: vec![call()] };
    let start = Instant::now();
    for request in [
        bind("t"),
        Request::Revoke { tenant: "acme".into(), fingerprint: decoy.fingerprint() },
        check(),
        bind("u"),
        check(),
    ] {
        send(&mut raw, request);
    }
    assert!(matches!(recv(&mut raw), Response::KeyBound { slot: 0 }));
    assert!(matches!(recv(&mut raw), Response::Revoked { removed: 1 }));
    assert!(start.elapsed() >= Duration::from_millis(300), "the revoke was wedged");
    let verdicts: Vec<Response> = (0..3).map(|_| recv(&mut raw)).collect();
    let allowed = |response: &Response| match response {
        Response::VerdictBatch { decisions: Some(ds) } => ds[0].allowed,
        other => panic!("expected a keyed verdict, got {other:?}"),
    };
    assert!(allowed(&verdicts[0]), "the first check keeps task t, bound when it was read");
    assert!(matches!(verdicts[1], Response::KeyBound { slot: 0 }));
    assert!(!allowed(&verdicts[2]), "the second check judges under task u");
    server.shutdown();
}

#[test]
fn a_framing_error_behind_a_wedged_revoke_is_answered_after_the_revoke_then_closes() {
    // The zero-length frame ends the conversation while the revoke is
    // still waiting on a subscriber that never acks: the connection must
    // still write the revoke's answer, then the framing error, and only
    // then close.
    let config =
        ServeConfig { push_ack_timeout: Duration::from_millis(300), ..ServeConfig::default() };
    let engine = Arc::new(Engine::default());
    let server = Server::start(Arc::clone(&engine), config);
    engine.install("acme", "t", &ctx(), &policy()).unwrap();
    let mut wedged = server.connect_stream().unwrap();
    subscribe(&mut wedged, "acme");

    let mut raw = server.connect_stream().unwrap();
    send(&mut raw, Request::Hello { version: conseca_serve::PROTOCOL_VERSION });
    assert!(matches!(recv(&mut raw), Response::HelloOk { .. }));
    let start = Instant::now();
    send(&mut raw, Request::Revoke { tenant: "acme".into(), fingerprint: policy().fingerprint() });
    raw.write_all(&[0, 0, 0, 0]).unwrap();
    assert!(matches!(recv(&mut raw), Response::Revoked { removed: 1 }));
    assert!(start.elapsed() >= Duration::from_millis(300), "the revoke was wedged");
    assert!(matches!(
        recv(&mut raw),
        Response::Error { code: conseca_serve::wire::code::MALFORMED, .. }
    ));
    assert!(read_frame(&mut raw, 1 << 20).unwrap().is_none(), "a clean close after the error");
    server.shutdown();
}

#[test]
fn a_push_ack_behind_a_parked_submitter_stalls_no_other_client_and_still_goes_out() {
    // A mock server that handshakes, then stops reading: the client's
    // submitter fills the socket and parks in its flush holding the
    // writer, waiting on a writable edge that only the reactor loop can
    // deliver. A push then arrives on the same loop. The client's demux
    // task must not wait for the writer (that would park the loop, and
    // with it every connection in the process), yet its ack must still
    // go out once the peer reads again.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (resume_tx, resume_rx) = std::sync::mpsc::channel::<()>();
    let (push_tx, push_rx) = std::sync::mpsc::channel::<()>();
    let mock = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let max = DEFAULT_MAX_FRAME_LEN;
        let hello = read_frame(&mut stream, max).unwrap().expect("hello");
        assert!(matches!(Request::decode(&hello).unwrap(), Request::Hello { .. }));
        let hello_ok = Response::HelloOk { version: conseca_serve::PROTOCOL_VERSION };
        write_frame(&mut stream, &hello_ok.encode(), max).unwrap();
        // Wedged: read nothing until told to push, then until told to
        // resume.
        push_rx.recv().unwrap();
        let push = Response::PushRevoke { seq: 7, tenant: "acme".into(), fingerprint: 1 };
        write_frame(&mut stream, &push.encode(), max).unwrap();
        resume_rx.recv().unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        loop {
            let frame = read_frame(&mut stream, max).expect("the client keeps writing");
            let frame = frame.expect("the ack arrives before the client closes");
            if let Ok(Request::PushAck { seq }) = Request::decode(&frame) {
                return seq;
            }
        }
    });

    let wedged = Arc::new(AsyncClient::connect(&addr.to_string()).expect("handshake"));
    let submitted = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let submitter = {
        let (wedged, submitted, stop) =
            (Arc::clone(&wedged), Arc::clone(&submitted), Arc::clone(&stop));
        std::thread::spawn(move || {
            let tenant = "x".repeat(64 * 1024);
            while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                drop(wedged.flush(&tenant).expect("submit"));
                submitted.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            }
        })
    };
    // The submitter is parked once its count stops moving.
    let mut last = u64::MAX;
    loop {
        std::thread::sleep(Duration::from_millis(200));
        let now = submitted.load(std::sync::atomic::Ordering::SeqCst);
        if now == last {
            break;
        }
        last = now;
    }
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    push_tx.send(()).unwrap();
    std::thread::sleep(Duration::from_millis(100));

    // Another client in the same process, on the same loop, is served.
    // Its server lives on the helper thread, so a stuck loop fails this
    // test at the deadline instead of hanging the server's shutdown.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let server =
            Server::bind(Arc::new(Engine::default()), "127.0.0.1:0", ServeConfig::default())
                .unwrap();
        let other =
            AsyncClient::connect(&server.local_addr().unwrap().to_string()).expect("handshake");
        let context = ctx();
        other.install("acme", "t", &context, &policy()).unwrap().wait().unwrap();
        for _ in 0..10 {
            let decision = other.check("acme", "t", &context, &call()).unwrap().wait().unwrap();
            assert!(decision.expect("installed").allowed);
        }
        done_tx.send(()).unwrap();
        drop(other);
        server.shutdown();
    });
    done_rx
        .recv_timeout(Duration::from_secs(1))
        .expect("a client on the same loop stalled behind another client's parked submitter");

    // The peer reads again: the parked submit completes, and the ack
    // owed meanwhile follows it without another submission.
    resume_tx.send(()).unwrap();
    assert_eq!(mock.join().expect("mock server"), 7, "the owed push ack reached the peer");
    submitter.join().expect("submitter");
}

#[test]
fn a_push_during_a_cached_clients_policy_compile_stalls_no_other_client() {
    // A policy whose compile takes long enough to overlap a push. The
    // push is applied on the reactor loop; were the compile to hold the
    // cache's lock that pushes take, the loop — and every connection in
    // the process — would wait out the compile.
    const MAX: u32 = 8 << 20;
    let mut big = policy();
    for i in 0..20_000 {
        let pred = Predicate::All(
            (0..10)
                .map(|j| Predicate::Not(Box::new(Predicate::Contains(format!("{i}.{j}")))))
                .collect(),
        );
        big.set(&format!("api_{i}"), PolicyEntry::allow(vec![ArgConstraint::Dsl(pred)], "r"));
    }
    let answer = Response::PolicyOk { policy: Some(big.clone()) }.encode();
    // The fastest of three runs, so the push lands early in the compile.
    let fastest = |work: &dyn Fn()| {
        (0..3)
            .map(|_| {
                let started = Instant::now();
                work();
                started.elapsed()
            })
            .min()
            .unwrap()
    };
    let decode = fastest(&|| drop(Response::decode(&answer).unwrap()));
    let compile = fastest(&|| drop(CompiledPolicy::compile(&big)));

    // The mock server answers the fetch, then pushes a revoke a quarter of
    // the way into the client's compile.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (pushed_tx, pushed_rx) = std::sync::mpsc::channel::<()>();
    let mock = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let hello = read_frame(&mut stream, MAX).unwrap().expect("hello");
        assert!(matches!(Request::decode(&hello).unwrap(), Request::Hello { .. }));
        let hello_ok = Response::HelloOk { version: conseca_serve::PROTOCOL_VERSION };
        write_frame(&mut stream, &hello_ok.encode(), MAX).unwrap();
        loop {
            let frame = read_frame(&mut stream, MAX).unwrap().expect("the client stays connected");
            if let Ok(Request::PushAck { seq }) = Request::decode(&frame) {
                return seq;
            }
            let (id, inner) = unwrap_tagged(&frame).expect("an enveloped request");
            match Request::decode(&inner).unwrap() {
                Request::Subscribe { .. } => {
                    write_frame(&mut stream, &wrap_tagged(id, &Response::Subscribed.encode()), MAX)
                        .unwrap();
                }
                Request::FetchPolicy { .. } => {
                    write_frame(&mut stream, &wrap_tagged(id, &answer), MAX).unwrap();
                    std::thread::sleep(decode + compile / 4);
                    let push =
                        Response::PushRevoke { seq: 1, tenant: "acme".into(), fingerprint: 1 };
                    write_frame(&mut stream, &push.encode(), MAX).unwrap();
                    pushed_tx.send(()).unwrap();
                }
                other => panic!("unexpected request {other:?}"),
            }
        }
    });

    let server =
        Server::bind(Arc::new(Engine::default()), "127.0.0.1:0", ServeConfig::default()).unwrap();
    let other = AsyncClient::connect(&server.local_addr().unwrap().to_string()).expect("handshake");
    let context = ctx();
    other.install("acme", "t", &context, &policy()).unwrap().wait().unwrap();
    other.check("acme", "t", &context, &call()).unwrap().wait().unwrap();

    let fetcher = std::thread::spawn(move || {
        let stream = std::net::TcpStream::connect(addr).unwrap();
        let mut cached = CachedClient::over_with(stream, "acme", MAX).expect("handshake");
        let decision = cached.check("t", &ctx(), &call()).expect("check");
        assert!(decision.expect("fetched").allowed);
        cached
    });
    pushed_rx.recv_timeout(Duration::from_secs(60)).expect("the mock pushed");
    std::thread::sleep(Duration::from_millis(10));
    let started = Instant::now();
    let decision = other.check("acme", "t", &context, &call()).unwrap().wait().unwrap();
    let waited = started.elapsed();
    assert!(decision.expect("installed").allowed);
    assert!(
        waited < compile / 4,
        "a check on the same loop waited {waited:?}, out of another client's policy compile \
         (decode {decode:?}, compile {compile:?})"
    );

    // The push raced the fetch, so the compiled policy judged its check
    // but stayed out of the cache; the push was acked.
    let cached = fetcher.join().expect("fetcher");
    assert_eq!(cached.fallbacks(), 1);
    assert_eq!(cached.cache().policies(), 0);
    assert_eq!(mock.join().expect("mock server"), 1);
    drop((other, cached));
    server.shutdown();
}
