//! Flush/revoke vs. check race regressions.
//!
//! A thread pool hammers `Engine::check` while another thread cycles
//! install → revoke → reload → flush on the same key. Two invariants,
//! both required by the hot-reload design (and historically the kind of
//! store race that only optimized builds catch):
//!
//! 1. **No check observes a revoked snapshot**: once `revoke_fingerprint`
//!    (or `flush_tenant`) has *returned*, a check that *starts* afterwards
//!    can never be answered by the swept snapshot — it either misses
//!    (fail closed) or sees whatever was installed later.
//! 2. **Counters reconcile exactly**: however the interleaving went,
//!    every lookup is billed once (`hits + misses == attempts`) and every
//!    decision once (`allowed + denied == checks == Some-results`).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use conseca_core::{Policy, PolicyEntry, TrustedContext};
use conseca_engine::Engine;
use conseca_shell::ApiCall;

/// Policy "A" for one cycle: allows the probe, rationale stamps the cycle
/// so checkers can tell exactly which snapshot answered them.
fn policy_a(cycle: usize) -> Policy {
    let mut p = Policy::new("raced task");
    p.set("send_email", PolicyEntry::allow_any(&format!("A#{cycle}")));
    p
}

/// Policy "B" for one cycle: denies the probe.
fn policy_b(cycle: usize) -> Policy {
    let mut p = Policy::new("raced task");
    p.set("send_email", PolicyEntry::deny(&format!("B#{cycle}")));
    p
}

fn probe() -> ApiCall {
    ApiCall::new("email", "send_email", vec!["alice".into()])
}

fn ctx() -> TrustedContext {
    TrustedContext::for_user("alice")
}

// The cycler publishes its progress as `cycle * 4 + phase`, stored
// *after* the corresponding engine call has returned. Checkers read it
// before checking; the invariant is on (state-at-start → legal answers).
const PH_A_LIVE: u64 = 0; // install(A#cycle) returned
const PH_REVOKED: u64 = 1; // sweep of A#cycle returned; nothing installed
const PH_B_LIVE: u64 = 2; // reload(B#cycle) returned

fn pack(cycle: usize, phase: u64) -> u64 {
    (cycle as u64) * 4 + phase
}

fn unpack(state: u64) -> (u64, u64) {
    (state / 4, state % 4)
}

#[test]
fn concurrent_revoke_and_flush_never_leak_a_revoked_snapshot() {
    const CHECKERS: usize = 4;
    const CYCLES: usize = 300;
    let engine = Arc::new(Engine::default());
    let context = ctx();
    engine.install("acme", "raced task", &context, &policy_a(0)).unwrap();
    // A bystander tenant the churn must never touch.
    engine.install("globex", "raced task", &context, &policy_a(0)).unwrap();

    let state = Arc::new(AtomicU64::new(pack(0, PH_A_LIVE)));
    let stop = Arc::new(AtomicBool::new(false));
    let violations = Arc::new(AtomicU64::new(0));
    let attempts = Arc::new(AtomicU64::new(0));
    let some_seen = Arc::new(AtomicU64::new(0));
    let allowed_seen = Arc::new(AtomicU64::new(0));

    std::thread::scope(|scope| {
        for _ in 0..CHECKERS {
            let engine = Arc::clone(&engine);
            let state = Arc::clone(&state);
            let stop = Arc::clone(&stop);
            let violations = Arc::clone(&violations);
            let attempts = Arc::clone(&attempts);
            let some_seen = Arc::clone(&some_seen);
            let allowed_seen = Arc::clone(&allowed_seen);
            let context = context.clone();
            scope.spawn(move || {
                let call = probe();
                while !stop.load(Ordering::Acquire) {
                    // What the cycler had *completed* before this check
                    // began bounds what the check may legally answer.
                    let (c, ph) = unpack(state.load(Ordering::Acquire));
                    attempts.fetch_add(1, Ordering::Relaxed);
                    let decision = engine.check("acme", "raced task", &context, &call);
                    let Some(decision) = decision else { continue };
                    some_seen.fetch_add(1, Ordering::Relaxed);
                    if decision.allowed {
                        allowed_seen.fetch_add(1, Ordering::Relaxed);
                    }
                    let (kind, k) = decision
                        .rationale
                        .split_once('#')
                        .map(|(kind, k)| (kind.to_owned(), k.parse::<u64>().unwrap()))
                        .expect("rationale stamps the cycle");
                    // A#k is swept when (k, PH_REVOKED) publishes and is
                    // never reinstalled (cycle stamps only grow), so a
                    // check that began at or after that publication must
                    // never see it. Likewise B#k is swept before
                    // (k+1, PH_A_LIVE) publishes.
                    let illegal = match kind.as_str() {
                        "A" => c > k || (c == k && ph != PH_A_LIVE),
                        "B" => c > k,
                        other => panic!("unknown policy kind {other}"),
                    };
                    if illegal {
                        violations.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }

        // The cycler: A#c live → swept (sweep or flush) → B#c live →
        // B#c swept, A#(c+1) live → …
        let cycle_state = Arc::clone(&state);
        let cycle_stop = Arc::clone(&stop);
        let cycle_engine = Arc::clone(&engine);
        let cycle_ctx = context.clone();
        scope.spawn(move || {
            for cycle in 0..CYCLES {
                // Sweep A#cycle — alternating the two invalidation paths.
                if cycle % 2 == 0 {
                    cycle_engine.revoke_fingerprint("acme", policy_a(cycle).fingerprint()).unwrap();
                } else {
                    cycle_engine.flush_tenant("acme");
                }
                cycle_state.store(pack(cycle, PH_REVOKED), Ordering::Release);
                // Reload B#cycle (atomic swap onto the empty key).
                cycle_engine.reload("acme", "raced task", &cycle_ctx, &policy_b(cycle)).unwrap();
                cycle_state.store(pack(cycle, PH_B_LIVE), Ordering::Release);
                // Retire B#cycle, restore A for the next cycle; only then
                // publish, so "saw A#(cycle+1)" is legal strictly after
                // the install returned.
                cycle_engine.revoke_fingerprint("acme", policy_b(cycle).fingerprint()).unwrap();
                cycle_engine
                    .install("acme", "raced task", &cycle_ctx, &policy_a(cycle + 1))
                    .unwrap();
                cycle_state.store(pack(cycle + 1, PH_A_LIVE), Ordering::Release);
            }
            cycle_stop.store(true, Ordering::Release);
        });
    });

    assert_eq!(violations.load(Ordering::Acquire), 0, "a revoked snapshot served a check");

    // Exact counter reconciliation: every lookup and every decision the
    // checkers performed is billed exactly once, however the races went.
    let counters = engine.tenant_counters("acme");
    let attempts = attempts.load(Ordering::Acquire);
    let some_seen = some_seen.load(Ordering::Acquire);
    let allowed_seen = allowed_seen.load(Ordering::Acquire);
    assert!(attempts > 0 && some_seen > 0, "the race actually ran");
    assert_eq!(counters.hits + counters.misses, attempts, "every lookup billed once");
    assert_eq!(counters.hits, some_seen, "every hit produced exactly one decision");
    assert_eq!(counters.checks, some_seen, "every decision billed once");
    assert_eq!(counters.allowed, allowed_seen);
    assert_eq!(counters.denied, some_seen - allowed_seen);
    // The cycler's churn is billed exactly too: one reload per cycle, one
    // revocation for A on even cycles (odd cycles flush, which is
    // deliberately *not* a revocation) and one for B every cycle.
    assert_eq!(counters.reloads, CYCLES as u64);
    let expected_revoked = (CYCLES as u64).div_ceil(2) + CYCLES as u64;
    assert_eq!(counters.revoked, expected_revoked);

    // The bystander tenant never noticed.
    let globex = engine.check("globex", "raced task", &ctx(), &probe()).expect("untouched");
    assert_eq!(globex.rationale, "A#0");
    assert_eq!(engine.tenant_counters("globex").revoked, 0);
}

#[test]
fn revocation_sweeps_are_atomic_per_shard_under_concurrent_installs() {
    // Concurrent installers re-installing the same fingerprint while a
    // revoker sweeps it: after both sides quiesce, a final sweep must
    // leave the store empty for the tenant — no slot can survive with
    // the revoked fingerprint, however the interleaving went.
    const INSTALLERS: usize = 4;
    const ROUNDS: usize = 200;
    let engine = Arc::new(Engine::default());
    let context = ctx();
    let policy = policy_a(0);
    let fp = policy.fingerprint();

    std::thread::scope(|scope| {
        for worker in 0..INSTALLERS {
            let engine = Arc::clone(&engine);
            let context = context.clone();
            let policy = policy.clone();
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    let task = format!("task-{worker}-{}", round % 8);
                    engine.install("acme", &task, &context, &policy).unwrap();
                }
            });
        }
        let engine = Arc::clone(&engine);
        scope.spawn(move || {
            for _ in 0..ROUNDS {
                engine.revoke_fingerprint("acme", fp).unwrap();
            }
        });
    });

    // Quiesced: one final sweep removes whatever the installers left.
    engine.revoke_fingerprint("acme", fp).unwrap();
    for worker in 0..INSTALLERS {
        for slot in 0..8 {
            let task = format!("task-{worker}-{slot}");
            assert!(
                engine.check("acme", &task, &ctx(), &probe()).is_none(),
                "slot {task} survived a completed revocation sweep"
            );
        }
    }
    assert!(engine.store().is_empty(), "no snapshot with the revoked fingerprint may remain");
}
