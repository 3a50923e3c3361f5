//! The lifecycle daemon over the wire: crash recovery of wire-issued
//! revocations, the shared push-ack deadline, the bounded resident
//! revocation ledger, v6 daemon counters, and sweeps fanning out over
//! the push channel. Everything asserted here is specified in
//! `docs/serving.md` and `docs/persistence.md`.

use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use conseca_core::{Policy, PolicyEntry, TrustedContext};
use conseca_engine::{Engine, JournalOptions};
use conseca_serve::wire::{read_frame, write_frame, Request, Response, DEFAULT_MAX_FRAME_LEN};
use conseca_serve::{DaemonConfig, ServeConfig, Server, ServerHandle};
use conseca_shell::ApiCall;

fn tmp_dir(name: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "conseca-serve-daemon-{}-{}-{name}",
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
    p.set("send_email", PolicyEntry::allow_any("the task sends"));
    p
}

fn call(name: &str) -> ApiCall {
    ApiCall::new("email", name, vec!["alice".into()])
}

fn start_at(dir: &PathBuf) -> ServerHandle {
    Server::start_with_daemon(
        Arc::new(Engine::default()),
        ServeConfig::default(),
        DaemonConfig::at(dir),
    )
    .expect("daemon start")
}

/// Raw-stream handshake + subscribe for tests that speak frames
/// directly.
fn subscribe(stream: &mut (impl Read + Write), tenant: &str) {
    write_frame(
        stream,
        &Request::Hello { version: conseca_serve::PROTOCOL_VERSION }.encode(),
        DEFAULT_MAX_FRAME_LEN,
    )
    .unwrap();
    let frame = read_frame(stream, 1 << 20).unwrap().expect("hello response");
    assert!(matches!(Response::decode(&frame).unwrap(), Response::HelloOk { .. }));
    write_frame(
        stream,
        &Request::Subscribe { tenant: tenant.into() }.encode(),
        DEFAULT_MAX_FRAME_LEN,
    )
    .unwrap();
    let frame = read_frame(stream, 1 << 20).unwrap().expect("subscribe response");
    assert!(matches!(Response::decode(&frame).unwrap(), Response::Subscribed));
}

#[test]
fn a_wire_revocation_survives_a_forced_restart() {
    // The crash-forgets-revocation hole, end to end: revoke over the
    // wire, kill the server before any snapshot tick could run, restart
    // from disk — the fingerprint must stay dead, including against a
    // client that restores an old snapshot with `revoked: []`.
    let dir = tmp_dir("restart");
    let _cleanup = Cleanup(dir.clone());
    let context = ctx();
    let doomed = policy("triage");
    let survivor = policy("digest");

    let pre_crash_snapshot;
    {
        let server = start_at(&dir);
        let mut client = server.connect().unwrap();
        client.install("acme", "triage", &context, &doomed).unwrap();
        client.install("acme", "digest", &context, &survivor).unwrap();
        // One snapshot tick makes both policies durable...
        assert_eq!(server.daemon().unwrap().snapshot_now(), 1);
        pre_crash_snapshot = client.snapshot("acme").unwrap().snapshot;
        // ...then the revocation lands, journaled before acknowledged.
        assert_eq!(client.revoke("acme", doomed.fingerprint()).unwrap(), 1);
        // Crash: the handle drops with no further snapshot tick — the
        // journal is the only durable record of the revocation.
        drop(client);
        server.shutdown();
    }

    let server = start_at(&dir);
    let recovery = server.daemon().unwrap().recovery();
    assert_eq!(recovery.installed(), 1, "the survivor warm-starts");
    assert_eq!(recovery.skipped_revoked(), 1, "the revoked policy does not");

    let mut client = server.connect().unwrap();
    assert!(
        client.check("acme", "triage", &context, &call("send_email")).unwrap().is_none(),
        "the revoked policy must stay dead across the restart"
    );
    assert!(
        client.check("acme", "digest", &context, &call("send_email")).unwrap().unwrap().allowed,
        "the live policy must survive the restart"
    );

    // A client that slept through the revocation restores last night's
    // snapshot knowing nothing (`revoked: []`): the replayed journal
    // still gates it.
    let restored = client.restore("acme", pre_crash_snapshot).unwrap();
    assert_eq!(
        (restored.installed, restored.skipped_revoked, restored.skipped_live),
        (0, 1, 1),
        "the journal must gate restores after the restart"
    );
    assert!(client.check("acme", "triage", &context, &call("send_email")).unwrap().is_none());
    server.shutdown();
}

#[test]
fn slow_subscribers_share_one_ack_deadline() {
    // Two subscribers that never ack: under the old per-subscriber
    // timeout a mutation stalled N x timeout; the deadline is now shared,
    // so the stall is bounded by one timeout regardless of N.
    let timeout = Duration::from_millis(500);
    let server = Server::start(
        Arc::new(Engine::default()),
        ServeConfig { push_ack_timeout: timeout, ..ServeConfig::default() },
    );
    let context = ctx();
    let mut client = server.connect().unwrap();
    let installed = policy("t");
    client.install("acme", "t", &context, &installed).unwrap();

    let mut slow_a = server.connect_stream().unwrap();
    let mut slow_b = server.connect_stream().unwrap();
    subscribe(&mut slow_a, "acme");
    subscribe(&mut slow_b, "acme");

    let started = Instant::now();
    assert_eq!(client.revoke("acme", installed.fingerprint()).unwrap(), 1);
    let stalled = started.elapsed();
    assert!(stalled >= timeout, "neither subscriber acked: {stalled:?}");
    assert!(
        stalled < timeout * 2,
        "two slow subscribers must share one deadline, not stack them: {stalled:?}"
    );

    // Both stragglers were force-closed (fail-closed), so the next
    // mutation does not wait at all.
    let started = Instant::now();
    client.install("acme", "t", &context, &installed).unwrap();
    assert!(started.elapsed() < timeout, "dropped subscribers must not stall later mutations");
    server.shutdown();
}

#[test]
fn a_wire_revoke_storm_keeps_resident_memory_bounded() {
    // Satellite regression: the server-side ledger used to be an
    // unbounded in-memory set per tenant. It is now the journal — every
    // record durable, only a capped window resident.
    const STORM: u64 = 2_000;
    const CAP: usize = 64;
    let dir = tmp_dir("storm");
    let _cleanup = Cleanup(dir.clone());
    let server = Server::start_with_daemon(
        Arc::new(Engine::default()),
        ServeConfig::default(),
        DaemonConfig::at(&dir)
            .journal_options(JournalOptions { resident_cap: CAP, compact_after: 0 }),
    )
    .unwrap();
    let mut client = server.connect().unwrap();
    for fp in 1..=STORM {
        assert_eq!(client.revoke("acme", fp).unwrap(), 0);
    }
    let journal = Arc::clone(server.daemon().unwrap().journal());
    assert_eq!(journal.appended_total(), STORM, "every revocation is durable");
    assert!(
        journal.resident_entries() <= CAP,
        "resident ledger must stay capped under a storm: {} > {CAP}",
        journal.resident_entries()
    );
    // Authoritative reads replay the file: nothing was forgotten, and a
    // restore for any stormed fingerprint is still gated.
    let replayed = journal.revoked_snapshot("acme").unwrap();
    assert_eq!(replayed.len(), STORM as usize);
    assert!((1..=STORM).all(|fp| replayed.contains(&fp)));
    server.shutdown();
}

#[test]
fn daemon_counters_travel_over_v6_stats() {
    let dir = tmp_dir("stats");
    let _cleanup = Cleanup(dir.clone());
    let server = start_at(&dir);
    let context = ctx();
    let mut client = server.connect().unwrap();
    let installed = policy("t");
    client.install("acme", "t", &context, &installed).unwrap();
    server.daemon().unwrap().snapshot_now();
    client.revoke("acme", installed.fingerprint()).unwrap();

    let daemon = client.stats_full("acme").unwrap().daemon;
    let daemon = daemon.expect("a daemon-backed server reports daemon counters");
    assert_eq!(daemon.snapshot_ticks, 1);
    assert_eq!(daemon.segments_written, 1);
    assert_eq!(daemon.journal_records, 1, "the wire revoke was journaled");
    assert_eq!(daemon.io_errors, 0);
    server.shutdown();

    // A server without a daemon answers the same request with an absent
    // block, not zeros — the client can tell "no daemon" from "idle".
    let bare = Server::start(Arc::new(Engine::default()), ServeConfig::default());
    let mut client = bare.connect().unwrap();
    let daemon = client.stats_full("acme").unwrap().daemon;
    assert!(daemon.is_none());
    bare.shutdown();
}

#[test]
fn daemon_sweeps_fan_out_over_the_push_channel() {
    // A sweep that revokes an orphan (its context no longer resolves)
    // reaches subscribed caches through the same v5 push channel wire
    // mutations use — no new machinery, same fail-closed ack contract.
    let dir = tmp_dir("sweep-push");
    let _cleanup = Cleanup(dir.clone());
    let config = DaemonConfig::at(&dir)
        .resolve_with(Arc::new(|_tenant: &str, _task: &str| None))
        .regenerate_with(Arc::new(|_t: &str, task: &str, _c: &TrustedContext| policy(task)));
    let server = Server::start_with_daemon(
        Arc::new(Engine::default()),
        ServeConfig { push_ack_timeout: Duration::from_millis(200), ..ServeConfig::default() },
        config,
    )
    .unwrap();
    let context = ctx();
    let mut client = server.connect().unwrap();
    let installed = policy("triage");
    client.install("acme", "triage", &context, &installed).unwrap();

    let mut subscriber = server.connect_stream().unwrap();
    subscribe(&mut subscriber, "acme");

    // The resolver answers None for every key: the sweep revokes the
    // orphan, durably, and the revocation is pushed before the sweep
    // returns (the subscriber deliberately never acks; the frame is
    // still written before the ack wait).
    let report = server.daemon().unwrap().sweep_now().expect("resolver configured");
    assert_eq!(report.orphaned, 1);
    let frame = read_frame(&mut subscriber, 1 << 20).unwrap().expect("a push frame");
    match Response::decode(&frame).unwrap() {
        Response::PushRevoke { tenant, fingerprint, .. } => {
            assert_eq!(tenant, "acme");
            assert_eq!(fingerprint, installed.fingerprint());
        }
        other => panic!("expected PushRevoke, got {other:?}"),
    }
    assert!(client.check("acme", "triage", &context, &call("send_email")).unwrap().is_none());

    // The sweep's revocation is as durable as a wire revoke: a restart
    // refuses to resurrect the orphan.
    server.shutdown();
    let server = start_at(&dir);
    assert_eq!(server.daemon().unwrap().recovery().installed(), 0);
    let mut client = server.connect().unwrap();
    assert!(client.check("acme", "triage", &context, &call("send_email")).unwrap().is_none());
    server.shutdown();
}
