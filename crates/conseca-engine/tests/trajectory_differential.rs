//! Differential property tests: compiled trajectory automata against the
//! interpreted [`TrajectoryEnforcer`].
//!
//! The trajectory compiler's contract mirrors the policy compiler's:
//! [`CompiledTrajectory::check`] must be *byte-identical* to the
//! interpreted enforcer — same verdict, same rationale text, same
//! structured violation — for every constraint set and every call
//! sequence, with both sides advancing check-and-record through the
//! sequence. The generators below draw APIs, needles, and argument
//! values from small overlapping pools so that rate limits actually
//! trip, ordering triggers actually fire, windows actually slide, and
//! `SameArgAsPrior` actually matches.
//!
//! A second property lifts the same comparison to the engine level:
//! [`Engine::resolve`] and a session [`Resolved::check`](conseca_engine::Resolved::check)
//! against a hand-rolled interpreted reference
//! (policy check, then trajectory check-and-record), decision for
//! decision.
//!
//! Failures reproduce exactly: the harness prints the failing seed, and
//! `CONSECA_PROPTEST_SEED=<seed>` replays it.

use conseca_core::trajectory::PriorCondition;
use conseca_core::{
    is_allowed, Decision, Policy, PolicyEntry, TrajectoryEnforcer, TrajectoryPolicy, TrustedContext,
};
use conseca_engine::{Billing, CompiledTrajectory, Engine, EngineKey, SessionState};
use conseca_shell::ApiCall;
use proptest::prelude::*;

/// A deliberately small API pool: collisions between rules and calls are
/// the interesting cases.
const APIS: &[&str] = &["send_email", "read_email", "read_secret", "search", "ls", "ping"];

/// Argument/needle pool; includes the format separator and an empty
/// string to keep rationale/needle handling honest.
const WORDS: &[&str] = &["a", "b", "urgent", "x :: y", "", "inbox"];

fn arb_api() -> impl Strategy<Value = String> {
    (0usize..APIS.len()).prop_map(|i| APIS[i].to_owned())
}

fn arb_word() -> impl Strategy<Value = String> {
    (0usize..WORDS.len()).prop_map(|i| WORDS[i].to_owned())
}

fn arb_rationale() -> impl Strategy<Value = String> {
    "[ -~]{0,12}".prop_map(|s| if s.is_empty() { "r".to_owned() } else { s })
}

fn arb_condition() -> impl Strategy<Value = PriorCondition> {
    prop_oneof![
        arb_api().prop_map(PriorCondition::ApiCalled),
        (arb_api(), 0usize..3, arb_word()).prop_map(|(api, index, needle)| {
            PriorCondition::ApiCalledWithArg { api, index, needle }
        }),
        (arb_api(), 0usize..3, 0usize..3).prop_map(|(api, prior_index, this_index)| {
            PriorCondition::SameArgAsPrior { api, prior_index, this_index }
        }),
    ]
}

fn arb_budget() -> impl Strategy<Value = Option<usize>> {
    prop_oneof![Just(None), (0usize..10).prop_map(Some)]
}

fn arb_trajectory() -> impl Strategy<Value = TrajectoryPolicy> {
    let rate = (arb_api(), 0usize..4, arb_rationale());
    let window = (arb_api(), 0usize..3, 1usize..6, arb_rationale());
    let order = (arb_api(), arb_api(), arb_rationale());
    let seq = (arb_api(), arb_condition(), arb_rationale());
    (
        (arb_budget(), proptest::collection::vec(rate, 0..3)),
        (
            proptest::collection::vec(window, 0..3),
            proptest::collection::vec(order, 0..3),
            proptest::collection::vec(seq, 0..3),
        ),
    )
        .prop_map(|((budget, rates), (windows, orders, seqs))| {
            let mut policy = TrajectoryPolicy::new();
            if let Some(max) = budget {
                policy = policy.budget(max);
            }
            for (api, max, rationale) in rates {
                policy = policy.limit(&api, max, &rationale);
            }
            for (api, max, window, rationale) in windows {
                policy = policy.limit_in_window(&api, max, window, &rationale);
            }
            for (api, after, rationale) in orders {
                policy = policy.forbid_after(&api, &after, &rationale);
            }
            for (api, condition, rationale) in seqs {
                policy = policy.require(&api, condition, &rationale);
            }
            policy
        })
}

fn arb_call() -> impl Strategy<Value = ApiCall> {
    (arb_api(), proptest::collection::vec(arb_word(), 0..4))
        .prop_map(|(name, args)| ApiCall::new("t", &name, args))
}

fn arb_sequence() -> impl Strategy<Value = Vec<ApiCall>> {
    proptest::collection::vec(arb_call(), 0..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Compiled and interpreted trajectory enforcement agree byte for
    /// byte at every step of every random sequence, including the
    /// rationale text and the structured violation carried by denials.
    #[test]
    fn compiled_matches_interpreted(policy in arb_trajectory(), calls in arb_sequence()) {
        let compiled = CompiledTrajectory::compile(&policy);
        prop_assert_eq!(compiled.is_some(), !policy.is_empty());
        let mut interpreted = TrajectoryEnforcer::new(policy.clone());
        match compiled {
            None => {
                // Nothing to compare; the interpreted side allows all.
                for call in &calls {
                    let d = interpreted.check(call);
                    prop_assert!(d.allowed);
                    interpreted.record(call);
                }
            }
            Some(compiled) => {
                let mut state = compiled.new_state();
                for (step, call) in calls.iter().enumerate() {
                    let fast = compiled.check(&state, call);
                    let slow = interpreted.check(call);
                    prop_assert_eq!(
                        &fast, &slow,
                        "divergence at step {} on {}", step, call.raw
                    );
                    if fast.allowed {
                        compiled.record(&mut state, call);
                        interpreted.record(call);
                    }
                }
            }
        }
    }

    /// The engine's session-aware check path agrees with a hand-rolled
    /// interpreted reference over full policies: per-API check first,
    /// then trajectory check-and-advance on allowed decisions.
    #[test]
    fn engine_sessions_match_the_interpreted_reference(
        trajectory in arb_trajectory(),
        calls in arb_sequence(),
        listed in proptest::collection::vec(arb_api(), 1..4),
    ) {
        let mut policy = Policy::new("differential task");
        for api in &listed {
            policy.set(api, PolicyEntry::allow_any("listed for this task"));
        }
        policy.set_trajectory(trajectory.clone());

        let engine = Engine::default();
        let ctx = TrustedContext::for_user("alice");
        engine.install("acme", &policy.task, &ctx, &policy).unwrap();
        let mut session = SessionState::new();
        let key = EngineKey::new("acme", &policy.task, &ctx);

        let mut reference = TrajectoryEnforcer::new(trajectory);
        for call in &calls {
            let compiled_decision = engine
                .resolve("acme", &key, Billing::Authoritative)
                .expect("policy installed")
                .check(Some(&mut session), call);

            let mut expected = is_allowed(call, &policy);
            if expected.allowed {
                let verdict = reference.check(call);
                if verdict.allowed {
                    reference.record(call);
                } else {
                    expected = Decision {
                        allowed: false,
                        rationale: verdict.rationale,
                        violation: verdict.violation,
                    };
                }
            }
            prop_assert_eq!(&compiled_decision, &expected, "divergence on {}", call.raw);
        }
    }
}
