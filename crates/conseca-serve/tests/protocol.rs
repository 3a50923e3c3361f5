//! Protocol edge cases against a live server: truncated frames,
//! oversized payloads, unknown tags, malformed payloads, handshake
//! violations, concurrent clients hammering one tenant, and the remote
//! session layer's eviction recovery. Every behaviour asserted here is
//! specified in `docs/serving.md`.

use std::io::{Read, Write};
use std::sync::Arc;

use conseca_core::pipeline::PipelineBuilder;
use conseca_core::{ArgConstraint, Policy, PolicyEntry, TrustedContext};
use conseca_engine::Engine;
use conseca_serve::wire::{
    code, read_frame, write_frame, Frame, Request, Response, DEFAULT_MAX_FRAME_LEN,
};
use conseca_serve::{Client, RemoteSessionLayer, ServeConfig, Server, ServerHandle, TenantClient};
use conseca_shell::ApiCall;

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

fn ctx() -> TrustedContext {
    TrustedContext::for_user("alice")
}

fn start() -> ServerHandle {
    Server::start(Arc::new(Engine::default()), ServeConfig::default())
}

/// Raw-stream handshake for tests that speak frames directly.
fn greet(stream: &mut (impl Read + Write)) {
    write_frame(
        stream,
        &Request::Hello { version: conseca_serve::PROTOCOL_VERSION }.encode(),
        DEFAULT_MAX_FRAME_LEN,
    )
    .unwrap();
    let frame = read_frame(stream, 1 << 20).unwrap().expect("hello response");
    assert!(matches!(Response::decode(&frame).unwrap(), Response::HelloOk { .. }));
}

fn read_response(stream: &mut impl Read) -> Response {
    let frame = read_frame(stream, 1 << 20).unwrap().expect("a response frame");
    Response::decode(&frame).unwrap()
}

#[test]
fn truncated_frame_drops_the_connection_but_not_the_server() {
    let server = start();
    let mut raw = server.connect_stream().unwrap();
    greet(&mut raw);
    // A frame header promising 100 bytes, followed by silence: the peer
    // vanishes mid-frame. The server must treat it as a disconnect.
    raw.write_all(&100u32.to_be_bytes()).unwrap();
    raw.write_all(&[0x02, 1, 2, 3]).unwrap();
    drop(raw);
    // The server is still fully alive for the next client.
    let mut client = server.connect().unwrap();
    client.install("acme", "t", &ctx(), &policy()).unwrap();
    let decision = client.check("acme", "t", &ctx(), &call("send_email", &["alice"])).unwrap();
    assert!(decision.unwrap().allowed);
    server.shutdown();
}

#[test]
fn oversized_frame_is_refused_and_the_connection_closes() {
    let server = Server::start(
        Arc::new(Engine::default()),
        ServeConfig { max_frame_len: 256, ..ServeConfig::default() },
    );
    let mut raw = server.connect_stream().unwrap();
    greet(&mut raw);
    // Announce a frame far over the cap. The server answers without ever
    // reading the payload, then closes — so it may have closed before
    // this trailing byte lands; a refused write is the race, not a bug.
    raw.write_all(&(1_000_000u32).to_be_bytes()).unwrap();
    let _ = raw.write_all(&[0x02]);
    match read_response(&mut raw) {
        Response::Error { code: c, message } => {
            assert_eq!(c, code::FRAME_TOO_LARGE);
            assert!(message.contains("1000000"), "message names the length: {message}");
        }
        other => panic!("expected FRAME_TOO_LARGE, got {other:?}"),
    }
    assert!(read_frame(&mut raw, 1 << 20).unwrap().is_none(), "server must close");
    server.shutdown();
}

#[test]
fn unknown_tag_is_answered_and_the_connection_continues() {
    let server = start();
    let mut raw = server.connect_stream().unwrap();
    greet(&mut raw);
    write_frame(&mut raw, &Frame { tag: 0x7E, payload: vec![1, 2, 3] }, DEFAULT_MAX_FRAME_LEN)
        .unwrap();
    match read_response(&mut raw) {
        Response::Error { code: c, .. } => assert_eq!(c, code::UNKNOWN_TAG),
        other => panic!("expected UNKNOWN_TAG, got {other:?}"),
    }
    // Same connection, valid request: still served.
    write_frame(
        &mut raw,
        &Request::Stats { tenant: "acme".into() }.encode(),
        DEFAULT_MAX_FRAME_LEN,
    )
    .unwrap();
    assert!(matches!(read_response(&mut raw), Response::StatsOk { .. }));
    server.shutdown();
}

#[test]
fn malformed_payload_is_answered_and_the_connection_continues() {
    let server = start();
    let mut raw = server.connect_stream().unwrap();
    greet(&mut raw);
    // A Stats frame whose tenant string promises more bytes than follow.
    let mut payload = Vec::new();
    payload.extend_from_slice(&100u32.to_be_bytes());
    payload.extend_from_slice(b"short");
    write_frame(&mut raw, &Frame { tag: 0x07, payload }, DEFAULT_MAX_FRAME_LEN).unwrap();
    match read_response(&mut raw) {
        Response::Error { code: c, .. } => assert_eq!(c, code::MALFORMED),
        other => panic!("expected MALFORMED, got {other:?}"),
    }
    write_frame(
        &mut raw,
        &Request::Stats { tenant: "acme".into() }.encode(),
        DEFAULT_MAX_FRAME_LEN,
    )
    .unwrap();
    assert!(matches!(read_response(&mut raw), Response::StatsOk { .. }));
    server.shutdown();
}

#[test]
fn requests_before_hello_are_refused_and_the_connection_closes() {
    let server = start();
    let mut raw = server.connect_stream().unwrap();
    write_frame(
        &mut raw,
        &Request::Stats { tenant: "acme".into() }.encode(),
        DEFAULT_MAX_FRAME_LEN,
    )
    .unwrap();
    match read_response(&mut raw) {
        Response::Error { code: c, .. } => assert_eq!(c, code::HANDSHAKE_REQUIRED),
        other => panic!("expected HANDSHAKE_REQUIRED, got {other:?}"),
    }
    assert!(read_frame(&mut raw, 1 << 20).unwrap().is_none(), "server must close");
    server.shutdown();
}

#[test]
fn unsupported_version_is_refused_and_the_connection_closes() {
    let server = start();
    let mut raw = server.connect_stream().unwrap();
    write_frame(&mut raw, &Request::Hello { version: 99 }.encode(), DEFAULT_MAX_FRAME_LEN).unwrap();
    match read_response(&mut raw) {
        Response::Error { code: c, message } => {
            assert_eq!(c, code::UNSUPPORTED_VERSION);
            assert!(message.contains("99"), "message names the bad version: {message}");
        }
        other => panic!("expected UNSUPPORTED_VERSION, got {other:?}"),
    }
    assert!(read_frame(&mut raw, 1 << 20).unwrap().is_none(), "server must close");
    server.shutdown();
}

#[test]
fn bad_policy_install_is_answered_and_the_connection_continues() {
    let server = start();
    let mut raw = server.connect_stream().unwrap();
    greet(&mut raw);
    // Hand-craft an Install whose regex does not compile (the typed API
    // cannot produce one — the check lives at the trust boundary).
    let mut payload = Vec::new();
    for s in ["acme", "t"] {
        payload.extend_from_slice(&(s.len() as u32).to_be_bytes());
        payload.extend_from_slice(s.as_bytes());
    }
    let ctx_frame =
        Request::FetchPolicy { tenant: String::new(), task: String::new(), context: ctx() }
            .encode();
    payload.extend_from_slice(&ctx_frame.payload[8..]); // context bytes after two empty strings
    for s in ["t", "default"] {
        payload.extend_from_slice(&(s.len() as u32).to_be_bytes());
        payload.extend_from_slice(s.as_bytes());
    }
    payload.extend_from_slice(&1u32.to_be_bytes()); // one entry
    payload.extend_from_slice(&2u32.to_be_bytes());
    payload.extend_from_slice(b"ls");
    payload.push(1); // can_execute
    payload.extend_from_slice(&1u32.to_be_bytes()); // one constraint
    payload.push(1); // regex kind
    let pattern = b"(unclosed";
    payload.extend_from_slice(&(pattern.len() as u32).to_be_bytes());
    payload.extend_from_slice(pattern);
    payload.extend_from_slice(&1u32.to_be_bytes());
    payload.extend_from_slice(b"r");
    write_frame(&mut raw, &Frame { tag: 0x04, payload }, DEFAULT_MAX_FRAME_LEN).unwrap();
    match read_response(&mut raw) {
        Response::Error { code: c, message } => {
            assert_eq!(c, code::BAD_POLICY);
            assert!(message.contains("unclosed"), "message names the pattern: {message}");
        }
        other => panic!("expected BAD_POLICY, got {other:?}"),
    }
    write_frame(
        &mut raw,
        &Request::Stats { tenant: "acme".into() }.encode(),
        DEFAULT_MAX_FRAME_LEN,
    )
    .unwrap();
    assert!(matches!(read_response(&mut raw), Response::StatsOk { .. }));
    server.shutdown();
}

#[test]
fn pipelined_requests_apply_effects_in_arrival_order() {
    // The protocol permits pipelining; even when the dispatcher batches
    // a whole pipeline into one round, an earlier Check must never
    // observe a later Flush or Install from the same connection.
    let server = start();
    let mut raw = server.connect_stream().unwrap();
    greet(&mut raw);
    let context = ctx();
    write_frame(
        &mut raw,
        &Request::Install {
            tenant: "acme".into(),
            task: "t".into(),
            context: context.clone(),
            policy: policy(),
        }
        .encode(),
        DEFAULT_MAX_FRAME_LEN,
    )
    .unwrap();
    assert!(matches!(read_response(&mut raw), Response::Installed { .. }));
    // Pipeline three frames before reading any response.
    let check = Request::Check {
        tenant: "acme".into(),
        task: "t".into(),
        context: context.clone(),
        call: call("send_email", &["alice"]),
    };
    write_frame(&mut raw, &check.encode(), DEFAULT_MAX_FRAME_LEN).unwrap();
    write_frame(
        &mut raw,
        &Request::Flush { tenant: "acme".into() }.encode(),
        DEFAULT_MAX_FRAME_LEN,
    )
    .unwrap();
    write_frame(&mut raw, &check.encode(), DEFAULT_MAX_FRAME_LEN).unwrap();
    match read_response(&mut raw) {
        Response::Verdict { decision: Some(d) } => assert!(d.allowed),
        other => panic!("pre-flush check must see the policy, got {other:?}"),
    }
    match read_response(&mut raw) {
        Response::Flushed { removed } => assert_eq!(removed, 1),
        other => panic!("expected Flushed, got {other:?}"),
    }
    match read_response(&mut raw) {
        Response::Verdict { decision: None } => {}
        other => panic!("post-flush check must miss, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn concurrent_clients_hammering_one_tenant_reconcile_with_counters() {
    const CLIENTS: usize = 8;
    const CHECKS_PER_CLIENT: usize = 200;
    let server = Server::bind(Arc::new(Engine::default()), "127.0.0.1:0", ServeConfig::default())
        .expect("bind loopback");
    let addr = server.local_addr().unwrap().to_string();
    {
        let mut setup = server.connect().unwrap();
        setup.install("acme", "t", &ctx(), &policy()).unwrap();
    }
    let (observed_allowed, observed_denied) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|worker| {
                let server = &server;
                let addr = addr.clone();
                scope.spawn(move || {
                    // Half the clients arrive over TCP, half in-process.
                    let mut client = if worker % 2 == 0 {
                        Client::connect(&addr).expect("tcp connect")
                    } else {
                        server.connect().expect("duplex connect")
                    };
                    let context = ctx();
                    let mut allowed = 0u64;
                    let mut denied = 0u64;
                    for i in 0..CHECKS_PER_CLIENT {
                        let action = match i % 3 {
                            0 => call("send_email", &["alice"]), // allowed
                            1 => call("send_email", &["eve"]),   // arg mismatch
                            _ => call("delete_email", &["1"]),   // cannot execute
                        };
                        let decision = client
                            .check("acme", "t", &context, &action)
                            .expect("transport")
                            .expect("policy installed");
                        if decision.allowed {
                            allowed += 1;
                        } else {
                            denied += 1;
                        }
                    }
                    (allowed, denied)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .fold((0, 0), |(a, d), (wa, wd)| (a + wa, d + wd))
    });
    let total = (CLIENTS * CHECKS_PER_CLIENT) as u64;
    assert_eq!(observed_allowed + observed_denied, total);
    // The server's per-tenant counters must reconcile exactly with what
    // the clients observed, however the dispatcher batched the load.
    let counters = server.engine().tenant_counters("acme");
    assert_eq!(counters.checks, total, "every check billed exactly once");
    assert_eq!(counters.allowed, observed_allowed);
    assert_eq!(counters.denied, observed_denied);
    let metrics = server.metrics();
    assert_eq!(metrics.requests, total + 1, "checks + the install");
    assert!(metrics.batches <= metrics.requests);
    server.shutdown();
}

#[test]
fn remote_session_layer_recovers_from_server_side_eviction() {
    let server = start();
    let mut client = server.connect().unwrap();
    let context = ctx();
    let shared = Arc::new(policy());
    client.install("acme", "t", &context, &shared).unwrap();
    {
        let mut client = TenantClient::Plain { client, tenant: "acme".to_owned() };
        let layer = RemoteSessionLayer::new(&mut client, "t", context.clone(), Arc::clone(&shared));
        let mut session = PipelineBuilder::new().layer(layer).build();
        let verdict = session.check(&call("send_email", &["alice"]));
        assert!(verdict.allowed);
        // The server loses the snapshot mid-session (flush / LRU): the
        // layer must re-install the policy it holds and keep enforcing
        // identically, never fail open or panic.
        assert_eq!(server.engine().flush_tenant("acme"), 1);
        let verdict = session.check(&call("send_email", &["alice"]));
        assert!(verdict.allowed, "verdict identical after recovery");
        let denied = session.check(&call("delete_email", &["1"]));
        assert!(!denied.allowed);
    }
    assert_eq!(server.engine().store().len(), 1, "the policy was re-installed");
    server.shutdown();
}

#[test]
fn shutdown_refuses_new_tcp_connections() {
    let server = Server::bind(Arc::new(Engine::default()), "127.0.0.1:0", ServeConfig::default())
        .expect("bind loopback");
    let addr = server.local_addr().unwrap().to_string();
    let mut existing = Client::connect(&addr).unwrap();
    existing.install("acme", "t", &ctx(), &policy()).unwrap();
    existing.shutdown_server().unwrap();
    // The accept loop has stopped: a fresh TCP connection either fails
    // outright or is never served (its handshake dies).
    match Client::connect(&addr) {
        Err(_) => {}
        Ok(_) => panic!("a new connection was served after shutdown"),
    }
    // The existing connection still answers.
    assert!(existing.stats("acme").is_ok());
    existing.close();
    server.shutdown();
}

#[test]
fn revoke_fails_checks_closed_and_reload_restores_them() {
    let server = start();
    let mut client = server.connect().unwrap();
    let context = ctx();
    let installed = policy();
    client.install("acme", "t", &context, &installed).unwrap();
    assert!(
        client
            .check("acme", "t", &context, &call("send_email", &["alice"]))
            .unwrap()
            .unwrap()
            .allowed
    );

    // Revoke by fingerprint: the snapshot disappears for every key that
    // carried it, and checks fail closed (absent verdict).
    assert_eq!(client.revoke("acme", installed.fingerprint()).unwrap(), 1);
    assert!(
        client.check("acme", "t", &context, &call("send_email", &["alice"])).unwrap().is_none(),
        "a revoked snapshot must not serve decisions over the wire"
    );
    assert!(client
        .check_all("acme", "t", &context, &[call("send_email", &["alice"])])
        .unwrap()
        .is_none());

    // Reload: the regenerated policy lands atomically and reports what it
    // displaced (nothing — the key was swept).
    let mut regenerated = Policy::new("t");
    regenerated.set("send_email", PolicyEntry::deny("context changed"));
    let receipt = client.reload("acme", "t", &context, &regenerated).unwrap();
    assert_eq!(receipt.old_fingerprint, None);
    assert_eq!(receipt.fingerprint, regenerated.fingerprint());
    let decision =
        client.check("acme", "t", &context, &call("send_email", &["alice"])).unwrap().unwrap();
    assert!(!decision.allowed, "the reloaded policy governs");

    // Reload on the live key reports the displaced fingerprint.
    let receipt = client.reload("acme", "t", &context, &installed).unwrap();
    assert_eq!(receipt.old_fingerprint, Some(regenerated.fingerprint()));

    // The tenant's reload accounting travels through Stats.
    let counters = client.stats("acme").unwrap();
    assert_eq!(counters.reloads, 2);
    assert_eq!(counters.revoked, 2, "the sweep plus the live-key displacement");
    assert_eq!(counters, server.engine().tenant_counters("acme"), "wire and engine stats agree");

    // A revoke for a fingerprint nobody holds is a counted no-op.
    assert_eq!(client.revoke("acme", 0xdead_beef).unwrap(), 0);
    server.shutdown();
}

#[test]
fn snapshot_restore_roundtrip_over_the_wire() {
    // install → snapshot → flush → restore → check: a server warm-starts
    // from bytes the client persisted, without the client resending the
    // installs.
    let server = start();
    let mut client = server.connect().unwrap();
    let context = ctx();
    client.install("acme", "t", &context, &policy()).unwrap();
    let receipt = client.snapshot("acme").unwrap();
    assert_eq!(receipt.entries, 1);

    assert_eq!(client.flush("acme").unwrap(), 1);
    assert!(client
        .check("acme", "t", &context, &call("send_email", &["alice"]))
        .unwrap()
        .is_none());

    let restored = client.restore("acme", receipt.snapshot.clone()).unwrap();
    assert_eq!((restored.installed, restored.skipped_revoked, restored.skipped_live), (1, 0, 0));
    let decision =
        client.check("acme", "t", &context, &call("send_email", &["alice"])).unwrap().unwrap();
    assert!(decision.allowed, "the restored policy serves decisions again");

    // Restoring over a live key defers to the newer install.
    let again = client.restore("acme", receipt.snapshot.clone()).unwrap();
    assert_eq!((again.installed, again.skipped_live), (0, 1));

    // A fingerprint revoked after the snapshot was taken can never come
    // back through a restore.
    let fp = policy().fingerprint();
    assert_eq!(client.revoke("acme", fp).unwrap(), 1);
    let blocked = client.restore("acme", receipt.snapshot).unwrap();
    assert_eq!((blocked.installed, blocked.skipped_revoked), (0, 1));
    assert!(
        client.check("acme", "t", &context, &call("send_email", &["alice"])).unwrap().is_none(),
        "the revoked policy must stay gone"
    );
    server.shutdown();
}

#[test]
fn corrupt_or_cross_tenant_snapshots_are_refused_with_bad_snapshot() {
    let server = start();
    let mut client = server.connect().unwrap();
    let context = ctx();
    client.install("acme", "t", &context, &policy()).unwrap();
    let receipt = client.snapshot("acme").unwrap();

    // Bit-flipped bytes: BAD_SNAPSHOT, nothing installed, connection
    // stays open.
    let mut corrupt = receipt.snapshot.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x40;
    match client.restore("acme", corrupt) {
        Err(conseca_serve::ClientError::Server { code: c, .. }) => {
            assert_eq!(c, code::BAD_SNAPSHOT)
        }
        other => panic!("expected BAD_SNAPSHOT, got {other:?}"),
    }

    // A pristine snapshot restored under another tenant is refused too —
    // snapshots cannot cross tenants.
    match client.restore("globex", receipt.snapshot) {
        Err(conseca_serve::ClientError::Server { code: c, .. }) => {
            assert_eq!(c, code::BAD_SNAPSHOT)
        }
        other => panic!("expected BAD_SNAPSHOT, got {other:?}"),
    }
    assert!(server
        .engine()
        .check("globex", "t", &context, &call("send_email", &["alice"]))
        .is_none());
    // The connection survived both refusals.
    assert!(client.stats("acme").is_ok());
    server.shutdown();
}

#[test]
fn oversized_snapshots_have_a_sanctioned_path_via_raised_frame_caps() {
    // A tenant with enough installed policy that its snapshot exceeds a
    // tiny frame cap: the default-cap client gets a typed
    // FRAME_TOO_LARGE error (from the *encode* side of the server — the
    // connection survives), and a client/server pair with raised caps
    // moves the same snapshot without complaint.
    let small = Server::start(
        Arc::new(Engine::default()),
        ServeConfig { max_frame_len: 2048, ..ServeConfig::default() },
    );
    let mut client = Client::over_with(small.connect_stream().unwrap(), 2048).unwrap();
    let context = ctx();
    for i in 0..24 {
        let mut wide = Policy::new(&format!("task {i}"));
        wide.set(
            "send_email",
            PolicyEntry::allow(
                vec![ArgConstraint::regex("^alice$").unwrap()],
                "a rationale string that occupies a fair amount of space in the snapshot",
            ),
        );
        client.install("acme", &format!("task {i}"), &context, &wide).unwrap();
    }
    match client.snapshot("acme") {
        Err(conseca_serve::ClientError::Server { code: c, .. }) => {
            assert_eq!(c, code::FRAME_TOO_LARGE, "the server refuses at encode time");
        }
        other => panic!("expected FRAME_TOO_LARGE, got {other:?}"),
    }
    // The connection is still usable after the oversized response was
    // downgraded to an error.
    assert!(client.stats("acme").is_ok());
    small.shutdown();

    // Same workload, raised caps on both sides: the snapshot flows.
    let big = Server::start(
        Arc::new(Engine::default()),
        ServeConfig { max_frame_len: 1 << 22, ..ServeConfig::default() },
    );
    let mut client = Client::over_with(big.connect_stream().unwrap(), 1 << 22).unwrap();
    for i in 0..24 {
        let mut wide = Policy::new(&format!("task {i}"));
        wide.set(
            "send_email",
            PolicyEntry::allow(
                vec![ArgConstraint::regex("^alice$").unwrap()],
                "a rationale string that occupies a fair amount of space in the snapshot",
            ),
        );
        client.install("acme", &format!("task {i}"), &context, &wide).unwrap();
    }
    let receipt = client.snapshot("acme").unwrap();
    assert_eq!(receipt.entries, 24);
    let restored = client.restore("acme", receipt.snapshot).unwrap();
    assert_eq!(restored.skipped_live, 24, "every key is still live on this server");
    big.shutdown();
}

#[test]
fn oversized_client_requests_fail_locally_with_a_typed_error() {
    // The client's own encode-side cap: an Install too large for the
    // frame cap never leaves the process — the satellite regression for
    // "encoder happily encodes, peer rejects".
    let server = Server::start(
        Arc::new(Engine::default()),
        ServeConfig { max_frame_len: 512, ..ServeConfig::default() },
    );
    let mut client = Client::over_with(server.connect_stream().unwrap(), 512).unwrap();
    let mut wide = Policy::new("t");
    for i in 0..64 {
        wide.set(&format!("api_{i:03}"), PolicyEntry::allow_any("some rationale text here"));
    }
    match client.install("acme", "t", &ctx(), &wide) {
        Err(conseca_serve::ClientError::Wire(conseca_serve::WireError::Oversized { .. })) => {}
        other => panic!("expected a local Oversized error, got {other:?}"),
    }
    // Nothing reached the server, and the connection is still in sync.
    assert_eq!(server.engine().store().len(), 0);
    assert!(client.stats("acme").is_ok());
    server.shutdown();
}

#[test]
fn wire_revocations_gate_restores_until_a_reinstall() {
    // The server's engine journals every wire revoke: a client that
    // restores last night's snapshot without knowing what was revoked
    // since must still not resurrect it.
    let server = start();
    let mut client = server.connect().unwrap();
    let context = ctx();
    client.install("acme", "t", &context, &policy()).unwrap();
    let receipt = client.snapshot("acme").unwrap();
    let fp = policy().fingerprint();
    assert_eq!(client.revoke("acme", fp).unwrap(), 1);

    let restored = client.restore("acme", receipt.snapshot.clone()).unwrap();
    assert_eq!(
        (restored.installed, restored.skipped_revoked),
        (0, 1),
        "the engine's journal must gate the restore"
    );
    assert!(client
        .check("acme", "t", &context, &call("send_email", &["alice"]))
        .unwrap()
        .is_none());

    // A deliberate reinstall clears acme's entry, making the snapshot
    // restorable again.
    client.install("acme", "t", &context, &policy()).unwrap();
    assert!(client
        .check("acme", "t", &context, &call("send_email", &["alice"]))
        .unwrap()
        .is_some());
    assert_eq!(client.flush("acme").unwrap(), 1);
    let restored = client.restore("acme", receipt.snapshot).unwrap();
    assert_eq!(
        (restored.installed, restored.skipped_revoked),
        (1, 0),
        "a deliberate reinstall clears the ledger entry"
    );
    server.shutdown();
}

#[test]
fn tagged_requests_are_answered_in_matching_envelopes_and_mix_with_bare() {
    use conseca_serve::wire::{unwrap_tagged, wrap_tagged};
    let server = start();
    let mut raw = server.connect_stream().unwrap();
    greet(&mut raw);
    // Pipeline three frames — enveloped, bare, enveloped — before
    // reading anything. Responses come back in order, each in the shape
    // its request used.
    let stats = Request::Stats { tenant: "acme".into() }.encode();
    write_frame(&mut raw, &wrap_tagged(7, &stats), DEFAULT_MAX_FRAME_LEN).unwrap();
    write_frame(&mut raw, &stats, DEFAULT_MAX_FRAME_LEN).unwrap();
    write_frame(&mut raw, &wrap_tagged(u64::MAX, &stats), DEFAULT_MAX_FRAME_LEN).unwrap();

    let first = read_frame(&mut raw, 1 << 20).unwrap().expect("first response");
    let (id, inner) = unwrap_tagged(&first).expect("an enveloped response");
    assert_eq!(id, 7);
    assert!(matches!(Response::decode(&inner).unwrap(), Response::StatsOk { .. }));

    assert!(matches!(read_response(&mut raw), Response::StatsOk { .. }), "bare stays bare");

    let third = read_frame(&mut raw, 1 << 20).unwrap().expect("third response");
    let (id, inner) = unwrap_tagged(&third).expect("an enveloped response");
    assert_eq!(id, u64::MAX);
    assert!(matches!(Response::decode(&inner).unwrap(), Response::StatsOk { .. }));
    server.shutdown();
}

#[test]
fn tagged_decode_errors_come_back_in_the_senders_envelope() {
    use conseca_serve::wire::{unwrap_tagged, wrap_tagged};
    let server = start();
    let mut raw = server.connect_stream().unwrap();
    greet(&mut raw);
    // An envelope whose inner frame has an unknown tag: the error must
    // carry the correlation id, or a pipelining client cannot attribute
    // it.
    let bogus = Frame { tag: 0x7E, payload: vec![1, 2, 3] };
    write_frame(&mut raw, &wrap_tagged(42, &bogus), DEFAULT_MAX_FRAME_LEN).unwrap();
    let frame = read_frame(&mut raw, 1 << 20).unwrap().expect("a response");
    let (id, inner) = unwrap_tagged(&frame).expect("enveloped error");
    assert_eq!(id, 42);
    match Response::decode(&inner).unwrap() {
        Response::Error { code: c, .. } => assert_eq!(c, code::UNKNOWN_TAG),
        other => panic!("expected UNKNOWN_TAG, got {other:?}"),
    }
    // The frame boundary was intact, so the connection continues.
    write_frame(
        &mut raw,
        &Request::Stats { tenant: "acme".into() }.encode(),
        DEFAULT_MAX_FRAME_LEN,
    )
    .unwrap();
    assert!(matches!(read_response(&mut raw), Response::StatsOk { .. }));
    server.shutdown();
}

#[test]
fn unusable_envelopes_are_answered_bare_and_the_connection_continues() {
    use conseca_serve::wire::{wrap_tagged, Frame};
    let server = start();
    let mut raw = server.connect_stream().unwrap();
    greet(&mut raw);
    // Envelope too short to carry an id (tag 0x0F, 3-byte payload): no
    // trustworthy id to echo, so the answer is bare.
    write_frame(&mut raw, &Frame { tag: 0x0F, payload: vec![1, 2, 3] }, DEFAULT_MAX_FRAME_LEN)
        .unwrap();
    match read_response(&mut raw) {
        Response::Error { code: c, .. } => assert_eq!(c, code::MALFORMED),
        other => panic!("expected MALFORMED, got {other:?}"),
    }
    // A nested envelope is rejected the same way.
    let stats = Request::Stats { tenant: "acme".into() }.encode();
    let nested = wrap_tagged(2, &wrap_tagged(1, &stats));
    write_frame(&mut raw, &nested, DEFAULT_MAX_FRAME_LEN).unwrap();
    match read_response(&mut raw) {
        Response::Error { code: c, .. } => assert_eq!(c, code::MALFORMED),
        other => panic!("expected MALFORMED, got {other:?}"),
    }
    // Both were frame-boundary-safe: the connection still serves.
    write_frame(
        &mut raw,
        &Request::Stats { tenant: "acme".into() }.encode(),
        DEFAULT_MAX_FRAME_LEN,
    )
    .unwrap();
    assert!(matches!(read_response(&mut raw), Response::StatsOk { .. }));
    server.shutdown();
}

fn budgeted_policy(budget: usize) -> Policy {
    use conseca_core::TrajectoryPolicy;
    let mut p = Policy::new("t");
    p.set("list_emails", PolicyEntry::allow_any("listing is the task"));
    p.set_trajectory(TrajectoryPolicy::new().budget(budget));
    p
}

#[test]
fn trajectory_sessions_bind_across_a_connection() {
    let server = start();
    let mut client = server.connect().unwrap();
    let context = ctx();
    client.install("acme", "t", &context, &budgeted_policy(2)).unwrap();
    let list = call("list_emails", &["Inbox"]);
    for _ in 0..2 {
        let d = client.check("acme", "t", &context, &list).unwrap().unwrap();
        assert!(d.allowed);
    }
    let third = client.check("acme", "t", &context, &list).unwrap().unwrap();
    assert!(!third.allowed, "the third check on this connection must exhaust the budget");
    assert_eq!(third.violation, Some(conseca_core::Violation::BudgetExhausted { max: 2 }));
    // Batched checks advance the same session: everything is spent now.
    let batch = client.check_all("acme", "t", &context, &[list.clone(), list]).unwrap().unwrap();
    assert!(batch.iter().all(|d| !d.allowed));
    server.shutdown();
}

#[test]
fn trajectory_sessions_are_isolated_per_connection() {
    let server = start();
    let mut first = server.connect().unwrap();
    let mut second = server.connect().unwrap();
    let context = ctx();
    first.install("acme", "t", &context, &budgeted_policy(1)).unwrap();
    let list = call("list_emails", &["Inbox"]);

    // The first connection spends its budget...
    assert!(first.check("acme", "t", &context, &list).unwrap().unwrap().allowed);
    assert!(!first.check("acme", "t", &context, &list).unwrap().unwrap().allowed);

    // ...and the second connection's budget is untouched.
    assert!(
        second.check("acme", "t", &context, &list).unwrap().unwrap().allowed,
        "one connection's spent budget must never leak into another's session"
    );

    // Closing the first connection drops its session; a fresh connection
    // starts a fresh trajectory even though ids are never reused.
    first.close();
    let mut third = server.connect().unwrap();
    assert!(third.check("acme", "t", &context, &list).unwrap().unwrap().allowed);
    server.shutdown();
}

fn send(stream: &mut impl Write, request: Request) {
    write_frame(stream, &request.encode(), DEFAULT_MAX_FRAME_LEN).unwrap();
}

fn bind(slot: u32, task: &str) -> Request {
    Request::BindKey { slot, tenant: "acme".into(), task: task.into(), context: ctx() }
}

fn keyed(slot: u32, calls: Vec<ApiCall>) -> Request {
    Request::CheckKeyed { slot, calls }
}

fn assert_bad_slot(response: Response) {
    match response {
        Response::Error { code: c, .. } => assert_eq!(c, code::BAD_SLOT),
        other => panic!("expected BAD_SLOT, got {other:?}"),
    }
}

#[test]
fn unbound_and_out_of_range_slots_are_answered_and_the_connection_continues() {
    use conseca_serve::wire::MAX_KEY_SLOTS;
    let server = start();
    server.engine().install("acme", "t", &ctx(), &policy()).unwrap();
    let mut raw = server.connect_stream().unwrap();
    greet(&mut raw);
    let send_alice = || vec![call("send_email", &["alice"])];

    send(&mut raw, keyed(3, send_alice()));
    assert_bad_slot(read_response(&mut raw));
    send(&mut raw, keyed(MAX_KEY_SLOTS, send_alice()));
    assert_bad_slot(read_response(&mut raw));
    send(&mut raw, bind(MAX_KEY_SLOTS, "t"));
    assert_bad_slot(read_response(&mut raw));
    send(&mut raw, bind(u32::MAX, "t"));
    assert_bad_slot(read_response(&mut raw));
    assert_eq!(server.metrics().key_slots, 0, "a refused bind binds nothing");

    // Same connection: the highest slot binds and checks like any other.
    let last = MAX_KEY_SLOTS - 1;
    send(&mut raw, bind(last, "t"));
    assert!(matches!(read_response(&mut raw), Response::KeyBound { slot } if slot == last));
    send(&mut raw, keyed(last, vec![call("send_email", &["alice"]), call("send_email", &["eve"])]));
    match read_response(&mut raw) {
        Response::VerdictBatch { decisions: Some(ds) } => {
            assert_eq!(ds.iter().map(|d| d.allowed).collect::<Vec<_>>(), [true, false]);
        }
        other => panic!("expected the bound key's verdicts, got {other:?}"),
    }
    // A slot bound to a key with no policy answers "not installed".
    send(&mut raw, bind(0, "no such task"));
    assert!(matches!(read_response(&mut raw), Response::KeyBound { slot: 0 }));
    send(&mut raw, keyed(0, send_alice()));
    assert!(matches!(read_response(&mut raw), Response::VerdictBatch { decisions: None }));
    assert_eq!(server.metrics().key_slots, 2);
    send(&mut raw, Request::Stats { tenant: "acme".into() });
    assert!(matches!(read_response(&mut raw), Response::StatsOk { .. }));
    drop(raw);
    server.shutdown();
}

#[test]
fn a_slot_names_a_key_and_the_keys_session_is_shared() {
    // Two slots bound to one key, and a full-key Check of that key, all
    // spend one trajectory session: a slot is a name, not a session.
    let server = start();
    server.engine().install("acme", "t", &ctx(), &budgeted_policy(2)).unwrap();
    let mut raw = server.connect_stream().unwrap();
    greet(&mut raw);
    let list = call("list_emails", &["Inbox"]);
    send(&mut raw, bind(0, "t"));
    send(&mut raw, bind(1, "t"));
    send(&mut raw, keyed(0, vec![list.clone()]));
    send(&mut raw, keyed(1, vec![list.clone()]));
    let check =
        Request::Check { tenant: "acme".into(), task: "t".into(), context: ctx(), call: list };
    send(&mut raw, check);
    assert!(matches!(read_response(&mut raw), Response::KeyBound { slot: 0 }));
    assert!(matches!(read_response(&mut raw), Response::KeyBound { slot: 1 }));
    let mut allowed = Vec::new();
    for _ in 0..2 {
        match read_response(&mut raw) {
            Response::VerdictBatch { decisions: Some(ds) } => allowed.push(ds[0].allowed),
            other => panic!("expected a keyed verdict, got {other:?}"),
        }
    }
    match read_response(&mut raw) {
        Response::Verdict { decision: Some(d) } => allowed.push(d.allowed),
        other => panic!("expected a full-key verdict, got {other:?}"),
    }
    assert_eq!(allowed, [true, true, false], "one budget of two across both slots and the key");
    server.shutdown();
}

#[test]
fn ten_thousand_keys_through_one_client_keep_the_slot_table_bounded() {
    use conseca_serve::wire::MAX_KEY_SLOTS;
    use conseca_serve::AsyncClient;
    const KEYS: u64 = 10_000;
    const WINDOW: u64 = 500;
    let server = start();
    let oracle = Engine::default();
    // Every tenth key has a policy; the rest answer "not installed".
    let context_of = |i: u64| TrustedContext { time: i, ..ctx() };
    for i in (0..KEYS).step_by(10) {
        server.engine().install("acme", "t", &context_of(i), &policy()).unwrap();
        oracle.install("acme", "t", &context_of(i), &policy()).unwrap();
    }
    let client = AsyncClient::over(server.connect_stream().unwrap()).unwrap();
    let calls = [call("send_email", &["alice"]), call("send_email", &["eve"])];
    let mut most_slots = 0;
    for window in (0..KEYS).step_by(WINDOW as usize) {
        let pending: Vec<_> = (window..window + WINDOW)
            .map(|i| {
                let call = &calls[(i / 10 % 2) as usize];
                (i, client.check("acme", "t", &context_of(i), call).unwrap())
            })
            .collect();
        for (i, served) in pending {
            let call = &calls[(i / 10 % 2) as usize];
            let expected = oracle.check("acme", "t", &context_of(i), call);
            assert_eq!(served.wait().unwrap(), expected, "key {i}");
        }
        most_slots = most_slots.max(server.metrics().key_slots);
    }
    assert!(most_slots <= MAX_KEY_SLOTS as u64, "{most_slots} slots bound on one connection");
    assert!(most_slots > 0);
    // Keys seen again after the table wrapped rebind and still judge right.
    let again = client.check("acme", "t", &context_of(0), &calls[0]).unwrap().wait().unwrap();
    assert!(again.expect("key 0 has a policy").allowed);
    drop(client);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while server.metrics().key_slots != 0 {
        assert!(std::time::Instant::now() < deadline, "a closed connection's slots are released");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    server.shutdown();
}

#[test]
fn key_slot_frames_before_hello_are_refused_and_the_connection_closes() {
    for request in [bind(0, "t"), keyed(0, vec![call("send_email", &["alice"])])] {
        let server = start();
        let mut raw = server.connect_stream().unwrap();
        send(&mut raw, request);
        match read_response(&mut raw) {
            Response::Error { code: c, .. } => assert_eq!(c, code::HANDSHAKE_REQUIRED),
            other => panic!("expected HANDSHAKE_REQUIRED, got {other:?}"),
        }
        assert!(read_frame(&mut raw, 1 << 20).unwrap().is_none(), "server must close");
        server.shutdown();
    }
}

#[test]
fn a_client_that_cannot_frame_an_answer_fails_closed() {
    // An answer over the client's cap is refused once its length is in,
    // and its payload is left on the stream. A client that kept going
    // would read that payload, and then the answers behind it, out of
    // step: a denied call could come back with an allowed call's
    // verdict. It must close instead, and answer every later call
    // `Closed` (docs/serving.md §2).
    let server = start();
    let context = ctx();
    let mut wide = Policy::new("t");
    wide.set("ls", PolicyEntry::allow_any("listing is fine"));
    wide.set("rm", PolicyEntry::deny("no deletions"));
    for i in 0..160 {
        let rationale = "a rationale that takes up a fair amount of room in the policy";
        wide.set(&format!("api_{i:03}"), PolicyEntry::allow_any(rationale));
    }
    server.connect().unwrap().install("acme", "t", &context, &wide).unwrap();

    let mut client = Client::over_with(server.connect_stream().unwrap(), 2048).unwrap();
    match client.fetch_policy("acme", "t", &context) {
        Err(e) if e.to_string().contains("exceeds the 2048-byte cap") => {}
        other => panic!("expected the answer to exceed the 2048-byte cap, got {other:?}"),
    }
    let (ls, rm) = (call("ls", &[]), call("rm", &["-rf", "/"]));
    let (mut closed, mut right, mut wrong, mut other) = (0, 0, 0, 0);
    for i in 0..2_000 {
        let (call, allowed) = if i % 2 == 0 { (&ls, true) } else { (&rm, false) };
        match client.check("acme", "t", &context, call) {
            Err(conseca_serve::ClientError::Closed) => closed += 1,
            Ok(Some(decision)) if decision.allowed == allowed => right += 1,
            Ok(Some(_)) => wrong += 1,
            _ => other += 1,
        }
    }
    assert_eq!(
        (closed, right, wrong, other),
        (2_000, 0, 0, 0),
        "after the refused answer: closed, right verdicts, wrong verdicts, other errors"
    );
    // The connection was closed, not the server.
    let mut fresh = server.connect().unwrap();
    assert!(!fresh.check("acme", "t", &context, &rm).unwrap().unwrap().allowed);
    server.shutdown();
}
