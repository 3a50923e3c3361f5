//! Persistence quickstart: log a tenant's compiled policies in a data
//! directory and warm-start a fresh engine from it.
//!
//! Simulates two process lifetimes. Process one generates policies for
//! a few tasks (the expensive step the paper's §7 caching discussion
//! wants to amortise), installs them into an engine, and writes the
//! tenant's snapshot log in the data directory — then revokes one
//! policy, the way a hot-reload would when its trusted context stops
//! holding. The engine journals that revoke in the same directory.
//! Process two warm-starts a brand-new engine through `recover` alone,
//! passing no revocation set: the live policies come back compiled and
//! serving, and the engine's replayed journal keeps the revoked one
//! dead.
//!
//! Run with: `cargo run --example warm_start`

use std::sync::Arc;

use conseca_core::{PolicyGenerator, TrustedContext};
use conseca_engine::{
    recover, tenant_log_path, Engine, JournalOptions, ReloadCoordinator, SnapshotLog,
};
use conseca_llm::TemplatePolicyModel;
use conseca_shell::{default_registry, parse_command};
use conseca_workloads::golden_examples;

fn main() {
    let registry = default_registry();
    let mut ctx = TrustedContext::for_user("alice");
    ctx.email_addresses = vec!["alice@work.com".into(), "bob@work.com".into()];
    ctx.fs_tree = "alice/\n  Documents/\n".into();
    let tasks = [
        "respond to urgent work emails",
        "archive last week's resolved threads",
        "summarise the Documents folder",
    ];
    let data_dir = std::env::temp_dir().join("conseca-warm-start-example-data");
    let _ = std::fs::remove_dir_all(&data_dir);

    // ---- process one: generate, install, snapshot, revoke ----------
    // Attaching the data directory's journal makes every revoke durable.
    let engine = Arc::new(Engine::default());
    recover(&engine, &data_dir, JournalOptions::default()).expect("open the data directory");
    let coordinator = ReloadCoordinator::new(Arc::clone(&engine));
    let mut generator = PolicyGenerator::new(TemplatePolicyModel::new(), &registry)
        .with_golden_examples(golden_examples());
    let mut fingerprints = Vec::new();
    for task in &tasks {
        let (policy, _) = generator.set_policy(task, &ctx);
        coordinator.install("acme", task, &ctx, &policy).expect("install");
        fingerprints.push(policy.fingerprint());
        println!("generated + installed  {:016x}  {task}", policy.fingerprint());
    }

    // Write the tenant's snapshot log: one full segment, synced.
    let snapshot = engine.store().export_snapshot("acme").expect("export");
    let log_path = tenant_log_path(&data_dir, "acme");
    let (mut log, _) = SnapshotLog::create_or_open(&log_path).expect("open the snapshot log");
    log.rewrite_full(&snapshot.bytes).expect("write the snapshot log");
    println!(
        "\nsnapshot: {} entries, {} bytes -> {}",
        snapshot.entries,
        snapshot.bytes.len(),
        log_path.display()
    );

    // After the snapshot, task three's context stops holding: revoke it.
    let mut sink = conseca_core::AuditLog::new();
    coordinator.revoke("acme", tasks[2], "context no longer holds", &mut sink).expect("journaled");
    println!("revoked after snapshot: {:016x} ({})", fingerprints[2], tasks[2]);

    // ---- process two: warm-start a brand-new engine ----------------
    // Process one exits first, closing its handles on the data files.
    drop((log, coordinator, engine));
    let fresh = Arc::new(Engine::default());
    let recovery =
        recover(&fresh, &data_dir, JournalOptions::default()).expect("recover the data directory");
    let report = &recovery.report;
    println!(
        "\nwarm start: installed={} skipped_revoked={} corrupt_logs={}",
        report.installed(),
        report.skipped_revoked(),
        report.corrupt_logs
    );
    assert_eq!(report.installed(), 2);
    assert_eq!(report.skipped_revoked(), 1);

    // The restored policies serve immediately — no regeneration, no
    // compile on the request path.
    let call = parse_command("send_email alice bob@work.com 'urgent: build' 'done'", &registry)
        .expect("parses");
    let decision = fresh.check("acme", tasks[0], &ctx, &call).expect("restored policy serves");
    println!(
        "\ncheck under restored policy: {} — {}",
        if decision.allowed { "ALLOWED" } else { "DENIED" },
        decision.rationale
    );

    // The revoked task stays fail-closed: no policy, no decision.
    assert!(
        fresh.check("acme", tasks[2], &ctx, &call).is_none(),
        "a revoked fingerprint must not be resurrected by a warm start"
    );
    println!("check under revoked task: absent (fail closed) — as it must be");

    let _ = std::fs::remove_dir_all(&data_dir);
}
