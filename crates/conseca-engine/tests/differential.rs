//! Differential property tests: the compiled engine against the
//! interpreted enforcer.
//!
//! The engine's whole value proposition rests on one guarantee:
//! `CompiledPolicy::check` is *semantically identical* to
//! [`is_allowed`] — same verdict, same rationale, same structured
//! violation — for every policy, API name, and argument vector, including
//! default-deny for unlisted calls, `can_execute = false` entries, and
//! argument vectors shorter or longer than the constraint list. These
//! properties drive randomized policies (regex constraints across every
//! lowering family, DSL predicate trees, `Any`) and randomized calls
//! (newlines included, since the regex lowering's one soundness subtlety
//! is `.`-excludes-`\n`) through both paths and require byte-identical
//! decisions.

use std::sync::Arc;

use conseca_core::pipeline::{PipelineBuilder, LAYER_POLICY};
use conseca_core::{
    is_allowed, ArgConstraint, CmpOp, Policy, PolicyEntry, Predicate, TrustedContext,
};
use conseca_engine::{
    check_parallel, CheckJob, CompiledPolicy, CompiledPolicyLayer, Engine, EngineKey,
};
use conseca_shell::ApiCall;
use proptest::prelude::*;

/// Regex patterns spanning every lowering family: pure literals,
/// prefix/suffix/equality anchors, `.*` wrappings (lowered), anchored
/// `.*` forms (kept on the VM for newline soundness), inline flags, and
/// syntax that always keeps the VM (classes, alternation, repeats).
fn arb_regex_constraint() -> impl Strategy<Value = ArgConstraint> {
    let literal = "[a-z@./]{0,8}";
    prop_oneof![
        literal.prop_map(|s| ArgConstraint::regex(&conseca_regex::escape(&s)).unwrap()),
        literal.prop_map(|s| ArgConstraint::regex(&format!("^{}", conseca_regex::escape(&s)))
            .unwrap()),
        literal.prop_map(|s| ArgConstraint::regex(&format!("{}$", conseca_regex::escape(&s)))
            .unwrap()),
        literal.prop_map(|s| ArgConstraint::regex(&format!("^{}$", conseca_regex::escape(&s)))
            .unwrap()),
        literal.prop_map(|s| ArgConstraint::regex(&format!(".*{}.*", conseca_regex::escape(&s)))
            .unwrap()),
        literal.prop_map(|s| ArgConstraint::regex(&format!("^.*{}$", conseca_regex::escape(&s)))
            .unwrap()),
        literal.prop_map(|s| ArgConstraint::regex(&format!("(?s)^.*{}$", conseca_regex::escape(&s)))
            .unwrap()),
        literal.prop_map(|s| ArgConstraint::regex(&format!("(?i){}", conseca_regex::escape(&s)))
            .unwrap()),
        Just(ArgConstraint::regex("[a-m]+[0-9]?").unwrap()),
        Just(ArgConstraint::regex("a|bc|def").unwrap()),
        Just(ArgConstraint::regex(r"^\w+@\w+\.com$").unwrap()),
        Just(ArgConstraint::regex(r"\balice\b").unwrap()),
        Just(ArgConstraint::regex("a.c").unwrap()),
        Just(ArgConstraint::regex(".*").unwrap()),
        Just(ArgConstraint::regex("").unwrap()),
    ]
}

fn arb_predicate() -> impl Strategy<Value = Predicate> {
    let leaf = prop_oneof![
        Just(Predicate::True),
        "[a-z/@.]{0,10}".prop_map(Predicate::Eq),
        "[a-z/@.]{0,10}".prop_map(Predicate::Prefix),
        "[a-z/@.]{0,10}".prop_map(Predicate::Suffix),
        "[a-z/@.]{0,10}".prop_map(Predicate::Contains),
        proptest::collection::vec("[a-z]{1,6}", 0..3).prop_map(Predicate::OneOf),
        (-100i64..100).prop_map(|v| Predicate::Num(CmpOp::Ge, v)),
        (-100i64..100).prop_map(|v| Predicate::Num(CmpOp::Lt, v)),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|p| Predicate::Not(Box::new(p))),
            proptest::collection::vec(inner.clone(), 1..3).prop_map(Predicate::All),
            proptest::collection::vec(inner, 1..3).prop_map(Predicate::AnyOf),
        ]
    })
}

fn arb_constraint() -> impl Strategy<Value = ArgConstraint> {
    prop_oneof![
        Just(ArgConstraint::Any),
        arb_regex_constraint(),
        arb_predicate().prop_map(ArgConstraint::Dsl),
    ]
}

const APIS: [&str; 6] = ["ls", "cat", "rm", "send_email", "write_file", "forward_email"];

fn arb_policy() -> impl Strategy<Value = Policy> {
    proptest::collection::vec(
        (0..APIS.len(), any::<bool>(), proptest::collection::vec(arb_constraint(), 0..4)),
        0..6,
    )
    .prop_map(move |entries| {
        let mut p = Policy::new("differential property task");
        for (i, can_execute, constraints) in entries {
            let entry = if can_execute {
                PolicyEntry::allow(constraints, "a rationale for allowing this in context")
            } else {
                PolicyEntry::deny("a rationale for denying this in context")
            };
            p.set(APIS[i], entry);
        }
        p
    })
}

/// Argument values with the characters that stress the lowering:
/// newlines, regex metacharacters, emails, paths, numbers, empties.
fn arb_args() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec("[a-z@./\n 0-9-]{0,12}", 0..6)
}

/// API names: mostly listed, sometimes unlisted, sometimes near-misses.
fn arb_api() -> impl Strategy<Value = String> {
    prop_oneof![
        (0..APIS.len()).prop_map(|i| APIS[i].to_owned()),
        Just("definitely_unlisted".to_owned()),
        Just("send_emai".to_owned()),
        Just("send_emails".to_owned()),
        Just(String::new()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The core guarantee: compiled and interpreted decisions are
    /// byte-identical — verdict, rationale, and violation.
    #[test]
    fn compiled_check_equals_interpreted(
        policy in arb_policy(),
        api in arb_api(),
        args in arb_args(),
    ) {
        let compiled = CompiledPolicy::compile(&policy);
        let call = ApiCall::new("x", &api, args);
        let interpreted = is_allowed(&call, &policy);
        let fast = compiled.check(&call);
        prop_assert_eq!(&fast, &interpreted, "divergence on {}", call.raw);
        prop_assert_eq!(compiled.allows(&call), interpreted.allowed);
    }

    /// Unlisted calls are default-denied by the compiled path for every
    /// policy shape (the §1 "restrict all other actions" guarantee).
    #[test]
    fn compiled_default_deny_holds(
        policy in arb_policy(),
        args in arb_args(),
    ) {
        let compiled = CompiledPolicy::compile(&policy);
        let call = ApiCall::new("x", "definitely_unlisted_api", args);
        let d = compiled.check(&call);
        prop_assert!(!d.allowed);
        prop_assert_eq!(d.violation, Some(conseca_core::Violation::UnlistedApi));
    }

    /// Argument vectors shorter than the constraint list (missing args
    /// checked as "") and longer (extras unconstrained) behave
    /// identically in both paths.
    #[test]
    fn out_of_range_argument_indices_agree(
        constraints in proptest::collection::vec(arb_constraint(), 1..5),
        args in arb_args(),
    ) {
        let mut policy = Policy::new("t");
        let n = constraints.len();
        policy.set("send_email", PolicyEntry::allow(constraints, "r"));
        let compiled = CompiledPolicy::compile(&policy);
        // Probe every arity from empty through beyond the constraint list.
        for arity in 0..(n + 2) {
            let mut probe = args.clone();
            probe.truncate(arity);
            while probe.len() < arity {
                probe.push(String::new());
            }
            let call = ApiCall::new("email", "send_email", probe);
            prop_assert_eq!(
                compiled.check(&call),
                is_allowed(&call, &policy),
                "arity {} diverged", arity
            );
        }
    }

    /// The compiled layer inside a pipeline produces the same verdicts,
    /// provenance, and session stats as the interpreted `PolicyLayer`.
    #[test]
    fn compiled_pipeline_layer_parity(
        policy in arb_policy(),
        calls in proptest::collection::vec((arb_api(), arb_args()), 1..6),
    ) {
        let compiled = Arc::new(CompiledPolicy::compile(&policy));
        let mut interpreted_session = PipelineBuilder::new().policy(&policy).build();
        let mut compiled_session =
            PipelineBuilder::new().layer(CompiledPolicyLayer::new(compiled)).build();
        for (api, args) in calls {
            let call = ApiCall::new("x", &api, args);
            let expected = interpreted_session.check(&call);
            let got = compiled_session.check(&call);
            prop_assert_eq!(&got, &expected, "divergence on {}", call.raw);
            prop_assert_eq!(got.decided_by, LAYER_POLICY);
        }
        prop_assert_eq!(interpreted_session.stats(), compiled_session.stats());
    }

    /// Compilation is a pure function of the policy: fingerprint and
    /// source round-trip unchanged.
    #[test]
    fn compilation_preserves_source_and_fingerprint(policy in arb_policy()) {
        let compiled = CompiledPolicy::compile(&policy);
        prop_assert_eq!(compiled.source(), &policy);
        prop_assert_eq!(compiled.fingerprint(), policy.fingerprint());
        prop_assert_eq!(compiled.len(), policy.len());
        prop_assert_eq!(compiled.is_empty(), policy.is_empty());
    }
}

/// A multi-threaded engine run agrees call-for-call with sequential
/// interpreted enforcement: shared snapshots change the cost model, never
/// the verdicts.
#[test]
fn parallel_engine_agrees_with_sequential_interpreter() {
    let mut policy = Policy::new("respond to urgent work emails");
    policy.set(
        "send_email",
        PolicyEntry::allow(
            vec![
                ArgConstraint::regex("alice").unwrap(),
                ArgConstraint::regex(r"^.*@work\.com$").unwrap(),
                ArgConstraint::regex(".*urgent.*").unwrap(),
            ],
            "urgent responses from alice to work.com",
        ),
    );
    policy.set("delete_email", PolicyEntry::deny("no deletions"));

    let engine = Engine::default();
    let ctx = TrustedContext::for_user("alice");
    let mut jobs = Vec::new();
    let mut expected_allowed = 0u64;
    for tenant in ["acme", "globex", "initech"] {
        engine.install(tenant, &policy.task, &ctx, &policy).unwrap();
        let key = EngineKey::new(tenant, &policy.task, &ctx);
        for i in 0..200usize {
            let call = match i % 4 {
                0 => ApiCall::new(
                    "email",
                    "send_email",
                    vec![
                        "alice".into(),
                        "bob@work.com".into(),
                        format!("urgent: rack {i}"),
                        "On it.".into(),
                    ],
                ),
                1 => ApiCall::new(
                    "email",
                    "send_email",
                    vec!["alice".into(), "bob@evil.com".into(), "urgent".into(), "x".into()],
                ),
                2 => ApiCall::new("email", "delete_email", vec![i.to_string()]),
                _ => ApiCall::new("fs", "rm_r", vec![format!("/home/alice/{i}")]),
            };
            if is_allowed(&call, &policy).allowed {
                expected_allowed += 1;
            }
            jobs.push(CheckJob::new(tenant, key, call));
        }
    }
    for threads in [1, 2, 4, 8] {
        let report = check_parallel(&engine, &jobs, threads);
        assert_eq!(report.checked, jobs.len() as u64, "{threads} threads");
        assert_eq!(report.allowed, expected_allowed, "{threads} threads");
        assert_eq!(report.missing_policy, 0, "{threads} threads");
    }
}
