//! Snapshot-vs-reload race regressions (the persistence companion to
//! `race.rs`).
//!
//! Exporters hammer `PolicyStore::export_snapshot` while another thread
//! cycles install → revoke → reload on the same keys. Three invariants:
//!
//! 1. **No torn snapshots**: every exported blob decodes and verifies
//!    cleanly (checksum, per-entry fingerprint binding) in a fresh
//!    store, and every entry it carries is one of the policies that was
//!    actually installed at some point — never a mix.
//! 2. **Generations are recorded coherently**: an exported entry's
//!    generation is one the store actually stamped, and entries
//!    exported later in the churn never carry a generation from before
//!    the key's earlier life.
//! 3. **A concurrent install wins over a stale restore**: importing an
//!    old snapshot into the live store never displaces whatever the
//!    churn installed after the export (`install_absent` semantics, the
//!    compare-and-install twin of `revoke_if_generation`).

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use conseca_core::{Policy, PolicyEntry, TrustedContext};
use conseca_engine::{decode_snapshot, Engine};
use conseca_shell::ApiCall;

fn policy_a(cycle: usize) -> Policy {
    let mut p = Policy::new(format!("raced task A#{cycle}").as_str());
    p.set("send_email", PolicyEntry::allow_any("allowed this cycle"));
    p
}

fn policy_b(cycle: usize) -> Policy {
    let mut p = Policy::new(format!("raced task B#{cycle}").as_str());
    p.set("send_email", PolicyEntry::deny("denied this cycle"));
    p
}

fn ctx() -> TrustedContext {
    TrustedContext::for_user("alice")
}

#[test]
fn snapshots_taken_mid_churn_are_never_torn() {
    const CYCLES: usize = 200;
    const EXPORTERS: usize = 2;
    let engine = Arc::new(Engine::default());
    let context = ctx();
    // A bystander the churn never touches: every snapshot must carry it
    // intact.
    let bystander = {
        let mut p = Policy::new("steady task");
        p.set("ls", PolicyEntry::allow_any("always fine"));
        p
    };
    engine.install("acme", &bystander.task, &context, &bystander).unwrap();

    // Every fingerprint the churn will ever install, for invariant 1.
    let valid_fps: HashSet<u64> = (0..CYCLES)
        .flat_map(|c| [policy_a(c).fingerprint(), policy_b(c).fingerprint()])
        .chain([bystander.fingerprint()])
        .collect();

    let stop = Arc::new(AtomicBool::new(false));
    let exports_checked = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        for _ in 0..EXPORTERS {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            let valid_fps = &valid_fps;
            let exports_checked = Arc::clone(&exports_checked);
            let bystander_fp = bystander.fingerprint();
            scope.spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    let exported = engine.store().export_snapshot("acme").expect("export");
                    // Decode + verify in full: a torn or half-replaced
                    // slot would break the checksum or the per-entry
                    // fingerprint binding.
                    let snapshot = decode_snapshot(&exported.bytes).expect("never torn");
                    assert_eq!(snapshot.tenant, "acme");
                    let mut saw_bystander = false;
                    for entry in &snapshot.entries {
                        assert!(
                            valid_fps.contains(&entry.source_fp),
                            "snapshot carried a policy nobody ever installed: {:016x}",
                            entry.source_fp
                        );
                        assert!(entry.generation > 0, "every slot is generation-stamped");
                        saw_bystander |= entry.source_fp == bystander_fp;
                    }
                    assert!(saw_bystander, "the untouched tenant entry must always export");
                    // And the whole blob imports cleanly into a fresh
                    // store.
                    let fresh = Engine::default();
                    let report = fresh
                        .import_snapshot("acme", &exported.bytes)
                        .expect("verified snapshots import");
                    assert_eq!(report.installed, snapshot.entries.len());
                    exports_checked.fetch_add(1, Ordering::Relaxed);
                }
            });
        }

        // The churn: install A, revoke it, reload to B — same key family
        // as race.rs, exports sampling every phase.
        for cycle in 0..CYCLES {
            let a = policy_a(cycle);
            engine.install("acme", &a.task, &context, &a).unwrap();
            engine.revoke_fingerprint("acme", a.fingerprint()).unwrap();
            let b = policy_b(cycle);
            engine.reload("acme", &b.task, &context, &b).unwrap();
            engine.store().export_snapshot("acme").expect("exports interleave with churn");
        }
        stop.store(true, Ordering::Release);
    });
    assert!(exports_checked.load(Ordering::Relaxed) > 0, "the exporters actually ran");
}

#[test]
fn a_restore_racing_installs_never_displaces_newer_policies() {
    const CYCLES: usize = 150;
    let engine = Arc::new(Engine::default());
    let context = ctx();
    let probe = ApiCall::new("email", "send_email", vec!["alice".into()]);

    // One contested key: policy text is fixed so the cache key is
    // stable, only the entries change per cycle.
    fn live_policy(cycle: usize) -> Policy {
        let mut p = Policy::new("contested task");
        p.set(
            "send_email",
            if cycle.is_multiple_of(2) {
                PolicyEntry::allow_any(&format!("cycle {cycle}"))
            } else {
                PolicyEntry::deny(&format!("cycle {cycle}"))
            },
        );
        p.set("marker", PolicyEntry::deny(&format!("cycle {cycle}")));
        p
    }

    engine.install("acme", "contested task", &context, &live_policy(0)).unwrap();
    let snapshot = engine.store().export_snapshot("acme").expect("export");
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        // Restorer: replays the cycle-0 snapshot as fast as it can.
        let restorer = {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            let bytes = snapshot.bytes.clone();
            scope.spawn(move || {
                let mut restored = 0u64;
                // At least one restore always runs, even if this thread
                // is not scheduled until the churn loop has finished (a
                // real starvation mode on single-vCPU hosts).
                loop {
                    let report = engine.import_snapshot("acme", &bytes).expect("import");
                    // The key is live for the whole run (install/reload
                    // replace atomically, they never leave a gap), so
                    // the stale restore must always lose.
                    assert_eq!(report.installed, 0, "a stale restore displaced a newer install");
                    restored += 1;
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                }
                restored
            })
        };

        for cycle in 1..CYCLES {
            let p = live_policy(cycle);
            let receipt = engine.reload("acme", "contested task", &context, &p).unwrap();
            assert_eq!(receipt.policy.fingerprint(), p.fingerprint());
            // Whatever the restorer did, the decision always comes from
            // some churn-installed policy — never from the stale
            // snapshot resurrected over it. (The snapshot's cycle-0
            // policy allows the probe with rationale "cycle 0"; every
            // live check must carry a rationale from a cycle >= this
            // loop's progress or the concurrent reload.)
            let decision = engine
                .check("acme", "contested task", &context, &probe)
                .expect("the key is never empty mid-churn");
            assert_ne!(
                decision.rationale, "cycle 0",
                "cycle {cycle}: the stale snapshot's policy answered a live check"
            );
        }
        stop.store(true, Ordering::Release);
        assert!(restorer.join().unwrap() > 0, "the restorer actually ran");
    });
}
