//! Soundness of the template generator's context declaration.
//!
//! `TemplatePolicyModel::reads` claims the model reads only the acting
//! user, the user names and the addresses. The agent trusts that claim:
//! it keys, sends and watches for drift only that projection, so a field
//! the model reads without declaring it would leave a stale policy in
//! force after that field changed. These properties check the claim.
//!
//! The first one works at the model level, below the projection
//! `PolicyGenerator::set_policy` applies: it hands the model two
//! *unprojected* contexts that agree on the declared fields and differ
//! anywhere else, for every Table-A task text with and without golden
//! examples, and requires the same policy from both. The second checks
//! that `set_policy` of a context equals `set_policy` of its projection.

use std::collections::BTreeMap;

use conseca_core::{PolicyGenerator, PolicyModel, PolicyRequest, TrustedContext};
use conseca_llm::{TemplateModelConfig, TemplatePolicyModel};
use conseca_shell::default_registry;
use conseca_workloads::{all_tasks, golden_examples, USERS};
use proptest::collection::vec;
use proptest::prelude::*;

/// The fields the template declares, drawn from the workload's users.
#[derive(Debug, Clone)]
struct Declared {
    current_user: String,
    usernames: Vec<String>,
    email_addresses: Vec<String>,
}

/// Everything else a context carries.
#[derive(Debug, Clone)]
struct Undeclared {
    date: String,
    time: u64,
    email_categories: Vec<String>,
    fs_tree: String,
    extra: BTreeMap<String, String>,
}

fn declared() -> impl Strategy<Value = Declared> {
    let user = 0usize..USERS.len();
    let domains = ["work.com", "work.com", "home.org"];
    (user.clone(), vec(user.clone(), 0..8), vec((user, 0usize..domains.len()), 0..8)).prop_map(
        move |(current, names, addresses)| Declared {
            current_user: USERS[current].to_owned(),
            usernames: names.into_iter().map(|i| USERS[i].to_owned()).collect(),
            email_addresses: addresses
                .into_iter()
                .map(|(i, d)| format!("{}@{}", USERS[i], domains[d]))
                .collect(),
        },
    )
}

fn undeclared() -> impl Strategy<Value = Undeclared> {
    let folders = vec(("[A-Za-z]{1,10}", vec("[a-z0-9_]{1,8}\\.[a-z]{2,3}", 0..4)), 0..6);
    let extra = vec(("[a-z]{1,6}", "[ -~]{0,12}"), 0..3);
    (
        (prop_oneof![Just(String::new()), "2025-0[1-9]-[0-2][0-9]"], 0u64..100_000),
        vec("[a-z]{1,8}", 0..5),
        folders,
        extra,
    )
        .prop_map(|((date, time), email_categories, folders, extra)| {
            let mut fs_tree = String::from("alice/\n");
            for (folder, files) in folders {
                fs_tree.push_str(&format!("  {folder}/\n"));
                for file in files {
                    fs_tree.push_str(&format!("    {file}\n"));
                }
            }
            Undeclared { date, time, email_categories, fs_tree, extra: extra.into_iter().collect() }
        })
}

fn context(declared: &Declared, rest: Undeclared) -> TrustedContext {
    TrustedContext {
        current_user: declared.current_user.clone(),
        date: rest.date,
        time: rest.time,
        usernames: declared.usernames.clone(),
        email_addresses: declared.email_addresses.clone(),
        email_categories: rest.email_categories,
        fs_tree: rest.fs_tree,
        extra: rest.extra,
    }
}

/// The plain template and one that hallucinates on about half the tasks.
fn models(seed: u64) -> [TemplatePolicyModel; 2] {
    [
        TemplatePolicyModel::new(),
        TemplatePolicyModel::with_config(TemplateModelConfig { hallucination_rate: 0.5, seed }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn template_policies_depend_only_on_the_declared_fields(
        declared in declared(),
        a in undeclared(),
        b in undeclared(),
        seed in any::<u64>(),
    ) {
        let (a, b) = (context(&declared, a), context(&declared, b));
        let tool_docs = default_registry().documentation();
        for model in models(seed) {
            prop_assert_eq!(a.project(model.reads()), b.project(model.reads()));
            for task in all_tasks() {
                for golden_examples in [Vec::new(), golden_examples()] {
                    let request = |context: &TrustedContext| PolicyRequest {
                        task: task.description.to_owned(),
                        context: context.clone(),
                        tool_docs: tool_docs.clone(),
                        golden_examples: golden_examples.clone(),
                    };
                    let from_a = model.generate(&request(&a)).policy;
                    let from_b = model.generate(&request(&b)).policy;
                    prop_assert_eq!(
                        from_a.fingerprint(),
                        from_b.fingerprint(),
                        "task {} (golden: {}) read an undeclared field",
                        task.id,
                        !golden_examples.is_empty()
                    );
                    prop_assert!(from_a == from_b, "task {}: rationales differ", task.id);
                }
            }
        }
    }

    #[test]
    fn set_policy_of_a_context_is_set_policy_of_its_projection(
        declared in declared(),
        rest in undeclared(),
        seed in any::<u64>(),
    ) {
        let full = context(&declared, rest);
        let registry = default_registry();
        for model in models(seed) {
            let projected = full.project(model.reads());
            for golden_examples in [Vec::new(), golden_examples()] {
                let mut generator = PolicyGenerator::new(model.clone(), &registry)
                    .with_golden_examples(golden_examples);
                for task in all_tasks() {
                    let (from_full, full_stats) = generator.set_policy(task.description, &full);
                    let (from_projection, projected_stats) =
                        generator.set_policy(task.description, &projected);
                    prop_assert_eq!(from_full.fingerprint(), from_projection.fingerprint());
                    prop_assert_eq!(full_stats, projected_stats, "the same prompt");
                }
            }
        }
    }
}
