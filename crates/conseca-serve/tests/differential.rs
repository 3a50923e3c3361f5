//! Differential property tests: served decisions against the in-process
//! engine, and exact wire round-trips for every carried type.
//!
//! The serving layer's acceptance bar is the same one the engine set:
//! moving enforcement behind a wire must not change a single byte of any
//! verdict. These properties drive randomized policies (regex
//! constraints across the lowering families, DSL predicate trees, `Any`)
//! and randomized calls (newlines and metacharacters included) through
//! `Engine::check` locally and through a live server remotely, and
//! require the `Decision`s to be equal both structurally and in their
//! wire encoding.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use conseca_core::{ArgConstraint, CmpOp, Policy, PolicyEntry, Predicate, TrustedContext};
use conseca_engine::{Billing, Engine, EngineKey};
use conseca_serve::wire::{encode_decision, Request, Response};
use conseca_serve::{ServeConfig, Server};
use conseca_shell::ApiCall;
use proptest::prelude::*;

fn arb_regex_constraint() -> impl Strategy<Value = ArgConstraint> {
    let literal = "[a-z@./]{0,8}";
    prop_oneof![
        literal.prop_map(|s| ArgConstraint::regex(&conseca_regex::escape(&s)).unwrap()),
        literal.prop_map(|s| ArgConstraint::regex(&format!("^{}", conseca_regex::escape(&s)))
            .unwrap()),
        literal.prop_map(|s| ArgConstraint::regex(&format!("{}$", conseca_regex::escape(&s)))
            .unwrap()),
        literal.prop_map(|s| ArgConstraint::regex(&format!(".*{}.*", conseca_regex::escape(&s)))
            .unwrap()),
        Just(ArgConstraint::regex("[a-m]+[0-9]?").unwrap()),
        Just(ArgConstraint::regex("a|bc|def").unwrap()),
        Just(ArgConstraint::regex(r"^\w+@\w+\.com$").unwrap()),
        Just(ArgConstraint::regex(".*").unwrap()),
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
        let mut p = Policy::new("served differential task");
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

/// Argument values that stress the codec and the lowering: newlines,
/// regex metacharacters, emails, paths, numbers, empties.
fn arb_args() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec("[a-z@./\n 0-9-]{0,12}", 0..6)
}

fn arb_api() -> impl Strategy<Value = String> {
    prop_oneof![
        (0..APIS.len()).prop_map(|i| APIS[i].to_owned()),
        Just("definitely_unlisted".to_owned()),
        Just("send_emai".to_owned()),
    ]
}

fn arb_calls() -> impl Strategy<Value = Vec<ApiCall>> {
    proptest::collection::vec(
        (arb_api(), arb_args()).prop_map(|(api, args)| ApiCall::new("test", &api, args)),
        1..6,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The tentpole acceptance property: served checks return
    /// byte-identical verdicts to in-process `Engine::check` across
    /// randomized policies.
    #[test]
    fn served_verdicts_are_byte_identical_to_in_process(
        policy in arb_policy(),
        calls in arb_calls(),
    ) {
        static TASK_SEQ: AtomicUsize = AtomicUsize::new(0);
        // One shared server across cases (starting one per case would
        // dominate the run); each case gets its own store key.
        use std::sync::OnceLock;
        static SERVER: OnceLock<conseca_serve::ServerHandle> = OnceLock::new();
        let server = SERVER.get_or_init(|| {
            Server::start(Arc::new(Engine::default()), ServeConfig::default())
        });
        let task = format!("case {}", TASK_SEQ.fetch_add(1, Ordering::Relaxed));
        let ctx = TrustedContext::for_user("alice");

        // The local reference engine is fresh per case.
        let local = Engine::default();
        local.install("acme", &task, &ctx, &policy).unwrap();

        let mut client = server.connect().expect("handshake");
        client.install("acme", &task, &ctx, &policy).expect("install");

        // Single checks: equal decisions, equal encodings.
        for call in &calls {
            let direct = local.check("acme", &task, &ctx, call).expect("installed");
            let served = client
                .check("acme", &task, &ctx, call)
                .expect("transport")
                .expect("installed");
            prop_assert_eq!(&served, &direct, "decision divergence on {}", call.raw);
            prop_assert_eq!(
                encode_decision(&served),
                encode_decision(&direct),
                "encoding divergence on {}",
                call.raw
            );
        }

        // The batch endpoint agrees with check_all.
        let direct_batch = local
            .resolve("acme", &EngineKey::new("acme", &task, &ctx), Billing::Authoritative)
            .expect("installed")
            .check_all(None, &calls);
        let served_batch = client
            .check_all("acme", &task, &ctx, &calls)
            .expect("transport")
            .expect("installed");
        prop_assert_eq!(served_batch, direct_batch);
    }

    /// Policies survive the wire exactly: install + fetch is identity,
    /// and the codec's own encode/decode round-trip is too.
    #[test]
    fn policies_roundtrip_exactly(policy in arb_policy()) {
        let ctx = TrustedContext::for_user("alice");
        let request = Request::Install {
            tenant: "acme".into(),
            task: "t".into(),
            context: ctx,
            policy: policy.clone(),
        };
        let decoded = Request::decode(&request.encode()).expect("decode");
        prop_assert_eq!(&decoded, &request);

        let response = Response::PolicyOk { policy: Some(policy) };
        let decoded = Response::decode(&response.encode()).expect("decode");
        prop_assert_eq!(&decoded, &response);
    }

    /// Contexts and calls survive the wire exactly, whatever is in them.
    #[test]
    fn contexts_and_calls_roundtrip_exactly(
        user in "[a-z]{1,8}",
        fs_tree in "[a-z/\n.]{0,40}",
        extras in proptest::collection::vec(("[a-z]{1,6}", "[a-z0-9 ]{0,10}"), 0..3),
        calls in arb_calls(),
    ) {
        let mut ctx = TrustedContext::for_user(&user);
        ctx.fs_tree = fs_tree;
        ctx.extra = extras.into_iter().collect();
        ctx.usernames = vec![user.clone()];
        let request = Request::CheckBatch {
            tenant: "acme".into(),
            task: "t".into(),
            context: ctx,
            calls,
        };
        let decoded = Request::decode(&request.encode()).expect("decode");
        prop_assert_eq!(decoded, request);
    }
}
