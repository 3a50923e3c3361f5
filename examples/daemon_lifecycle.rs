//! Lifecycle-daemon quickstart: a policy-decision server that survives
//! its own crash.
//!
//! Simulates two process lifetimes around a kill. Process one starts a
//! daemon-backed server, installs policies over the wire, lets one
//! snapshot tick make them durable, then loses one policy to the drift
//! sweep (its context stops resolving — the orphan is revoked durably)
//! and the other to a wire revoke — and "crashes" (shuts down with no
//! parting snapshot; a stop is indistinguishable from a crash by
//! design). Process two restarts from the data directory alone: crash
//! recovery replays the revocation journal, merges the snapshot log,
//! and refuses to resurrect either revocation, wherever it came from.
//!
//! Run with: `cargo run --example daemon_lifecycle`

use std::sync::Arc;

use conseca_core::{Policy, PolicyEntry, TrustedContext};
use conseca_engine::Engine;
use conseca_serve::{DaemonConfig, ServeConfig, Server};
use conseca_shell::ApiCall;

fn policy(task: &str) -> Policy {
    let mut p = Policy::new(task);
    p.set("send_email", PolicyEntry::allow_any("the task sends mail"));
    p
}

fn main() {
    let data_dir = std::env::temp_dir().join("conseca-daemon-lifecycle-example");
    let _ = std::fs::remove_dir_all(&data_dir);
    let context = TrustedContext::for_user("alice");
    let probe = ApiCall::new("email", "send_email", vec!["alice".into()]);
    let orphan = policy("triage");
    let revoked = policy("digest");
    let survivor = policy("reports");

    // ---- process one: install, tick, sweep, revoke, crash ----------
    // The resolver is what the sweep trusts about the world: here
    // triage's context no longer resolves, so the sweep revokes it as
    // an orphan; the other tasks still hold and stay untouched.
    let config = DaemonConfig::at(&data_dir)
        .resolve_with(Arc::new(|_tenant: &str, task: &str| {
            (task != "triage").then(|| TrustedContext::for_user("alice"))
        }))
        .regenerate_with(Arc::new(|_t: &str, task: &str, _c: &TrustedContext| policy(task)));
    let server =
        Server::start_with_daemon(Arc::new(Engine::default()), ServeConfig::default(), config)
            .expect("daemon start");
    let mut client = server.connect().expect("handshake");
    client.install("acme", "triage", &context, &orphan).expect("install");
    client.install("acme", "digest", &context, &revoked).expect("install");
    client.install("acme", "reports", &context, &survivor).expect("install");

    let daemon = server.daemon().expect("daemon-backed");
    let written = daemon.snapshot_now();
    println!("snapshot tick: {written} tenant log(s) written under {}", data_dir.display());

    let report = daemon.sweep_now().expect("resolver configured");
    println!(
        "sweep: reloaded={} orphaned={} (triage's context stopped resolving)",
        report.reloaded, report.orphaned
    );
    assert_eq!(report.orphaned, 1);

    // A wire revoke takes digest too — journaled before acknowledged,
    // and no snapshot tick runs after either revocation: the journal is
    // the only durable record when the process dies.
    client.revoke("acme", revoked.fingerprint()).expect("revoke");
    println!(
        "revoked {:016x} (digest) over the wire, then the process dies",
        revoked.fingerprint()
    );
    drop(client);
    server.shutdown();

    // ---- process two: recover from disk alone ----------------------
    let server = Server::start_with_daemon(
        Arc::new(Engine::default()),
        ServeConfig::default(),
        DaemonConfig::at(&data_dir),
    )
    .expect("daemon restart");
    let recovery = server.daemon().expect("daemon-backed").recovery();
    println!(
        "\nrecovery: installed={} skipped_revoked={} corrupt_logs={}",
        recovery.installed(),
        recovery.skipped_revoked(),
        recovery.corrupt_logs
    );
    assert_eq!(recovery.installed(), 1, "only the reports policy warm-starts");
    assert_eq!(recovery.skipped_revoked(), 2, "sweep and wire revocations both outlive the crash");

    let mut client = server.connect().expect("handshake");
    assert!(
        client.check("acme", "triage", &context, &probe).expect("check").is_none(),
        "a crash must not forget a sweep revocation"
    );
    assert!(
        client.check("acme", "digest", &context, &probe).expect("check").is_none(),
        "a crash must not forget a wire revocation"
    );
    let decision =
        client.check("acme", "reports", &context, &probe).expect("check").expect("restored");
    println!("reports after restart: allowed={} — {}", decision.allowed, decision.rationale);
    assert!(decision.allowed);

    // The daemon's counters travel in the v6 stats frame.
    let daemon_counters = client.stats_full("acme").expect("stats").daemon;
    let daemon_counters = daemon_counters.expect("daemon-backed server");
    println!(
        "v6 stats: recovered_installed={} recovered_skipped_revoked={} io_errors={}",
        daemon_counters.recovered_installed,
        daemon_counters.recovered_skipped_revoked,
        daemon_counters.io_errors
    );
    drop(client);
    server.shutdown();

    let _ = std::fs::remove_dir_all(&data_dir);
}
