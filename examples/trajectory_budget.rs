//! Compiled trajectory constraints end-to-end: budgets, ordering rules,
//! and sliding windows enforced by the engine's session-aware check
//! path — and a spent budget surviving revoke + warm-start.
//!
//! Per-action policies (see `examples/quickstart.rs`) judge each call
//! alone; trajectory constraints judge the *sequence*. The engine
//! compiles them once per policy into counter tables and latched
//! automata ([`conseca_engine::CompiledTrajectory`]), then threads a
//! small per-session state through `Resolved::check` — no per-check
//! allocation, byte-identical to the interpreted
//! [`conseca_core::TrajectoryEnforcer`].
//!
//! Run with: `cargo run --example trajectory_budget`

use conseca_core::{Policy, PolicyEntry, TrajectoryPolicy, TrustedContext};
use conseca_engine::{Billing, Engine, EngineKey, SessionState};
use conseca_shell::ApiCall;

fn call(name: &str, args: &[&str]) -> ApiCall {
    ApiCall::new("demo", name, args.iter().map(|s| s.to_string()).collect())
}

fn main() {
    // A policy whose per-API layer is permissive; every denial below
    // comes from the trajectory block.
    let mut policy = Policy::new("triage the inbox");
    for api in ["read_email", "send_email", "read_secret", "ls"] {
        policy.set(api, PolicyEntry::allow_any("triage needs this"));
    }
    policy.set_trajectory(
        TrajectoryPolicy::new()
            .budget(7)
            .forbid_after("send_email", "read_secret", "no exfil after secrets")
            .limit_in_window("ls", 2, 4, "a listing storm suggests a stuck plan"),
    );

    let engine = Engine::default();
    let ctx = TrustedContext::for_user("alice");
    engine.install("acme", &policy.task, &ctx, &policy).expect("in-memory journal");

    // The session carries the trajectory state between checks; the
    // engine rebuilds it only when the resolved policy's fingerprint
    // changes.
    let mut session = SessionState::new();
    let key = EngineKey::new("acme", &policy.task, &ctx);
    let judge = |c: &ApiCall, session: &mut SessionState| {
        let resolved = engine.resolve("acme", &key, Billing::Authoritative).expect("installed");
        let d = resolved.check(Some(session), c);
        println!(
            "  step {:>2}  {:<28} -> {}{}",
            session.steps(),
            c.raw,
            if d.allowed { "allowed" } else { "DENIED" },
            d.violation.map(|v| format!("  [{v}]")).unwrap_or_default(),
        );
        d.allowed
    };

    println!("sliding window (max 2 `ls` per 4 steps):");
    assert!(judge(&call("ls", &[]), &mut session));
    assert!(judge(&call("ls", &[]), &mut session));
    assert!(!judge(&call("ls", &[]), &mut session), "third ls inside the window");
    assert!(judge(&call("read_email", &["9"]), &mut session));
    assert!(judge(&call("read_email", &["12"]), &mut session));
    assert!(judge(&call("read_email", &["15"]), &mut session));
    assert!(judge(&call("ls", &[]), &mut session), "window slid open again");

    println!("\nordering rule (no send_email after read_secret):");
    assert!(judge(&call("send_email", &["bob@work.com"]), &mut session));
    // The 7-call budget is now spent; the order rule never even gets to
    // latch because the budget denies first — which is the point of
    // budgets: runaway plans stop regardless of which call comes next.
    println!("\nbudget (7 total actions for this task):");
    assert!(!judge(&call("read_secret", &["vault"]), &mut session));

    // Spent budgets survive persistence. Snapshot the tenant, revoke
    // and re-import, and the *same session* stays exhausted: trajectory
    // state lives beside the store, not inside it.
    let snapshot = engine.store().export_snapshot("acme").expect("export").bytes;
    engine.flush_tenant("acme");
    let report = engine.import_snapshot("acme", &snapshot).expect("import");
    println!("\nwarm-start: restored {} policy(ies) from the snapshot", report.installed);
    assert!(
        !judge(&call("read_email", &["13"]), &mut session),
        "warm-start must not resurrect a spent budget"
    );
    let mut fresh = SessionState::new();
    assert!(
        judge(&call("read_email", &["13"]), &mut fresh),
        "a genuinely new session starts with a full budget"
    );
    println!("\nspent budgets survived the warm-start; fresh sessions start clean.");
}
