//! Benchmarks policy generation (§7 overhead): trusted-context
//! extraction, prompt assembly, template instantiation, and cache hits
//! vs. misses.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use conseca_core::{generate::render_prompt, PolicyGenerator, PolicyModel, PolicyRequest};
use conseca_llm::TemplatePolicyModel;
use conseca_shell::default_registry;
use conseca_workloads::{golden_examples, Env, CURRENT_USER};

fn bench_generation(c: &mut Criterion) {
    let env = Env::build();
    let registry = default_registry();
    let ctx = conseca_agent::build_trusted_context(&env.vfs, &env.mail, CURRENT_USER);
    let task = "Read any unread emails in my inbox related to work, respond to any that are urgent, and archive them into mail subfolders.";

    // The agent's per-mutation cost under Conseca: one context build,
    // and the drift check that hashes it (the reload reuses that build).
    c.bench_function("trusted_context_build", |b| {
        b.iter(|| {
            conseca_agent::build_trusted_context(
                black_box(&env.vfs),
                black_box(&env.mail),
                CURRENT_USER,
            )
        })
    });

    c.bench_function("drift_check", |b| {
        b.iter(|| {
            conseca_agent::build_trusted_context(
                black_box(&env.vfs),
                black_box(&env.mail),
                CURRENT_USER,
            )
            .drift_fingerprint()
        })
    });

    // The same two costs for the template generator's projection (the
    // user, the user names and the addresses): what the agent builds and
    // hashes under Conseca, with no fs-tree walk and no header reads.
    let reads = TemplatePolicyModel::new().reads();
    c.bench_function("trusted_context_build_projected", |b| {
        b.iter(|| {
            conseca_agent::build_context(
                black_box(&env.vfs),
                black_box(&env.mail),
                CURRENT_USER,
                reads,
            )
        })
    });

    c.bench_function("drift_check_projected", |b| {
        b.iter(|| {
            conseca_agent::build_context(
                black_box(&env.vfs),
                black_box(&env.mail),
                CURRENT_USER,
                reads,
            )
            .drift_fingerprint()
        })
    });

    c.bench_function("set_policy_uncached", |b| {
        let mut generator = PolicyGenerator::new(TemplatePolicyModel::new(), &registry)
            .with_golden_examples(golden_examples());
        b.iter(|| generator.set_policy(black_box(task), black_box(&ctx)))
    });

    c.bench_function("set_policy_cached_hit", |b| {
        let mut generator = PolicyGenerator::new(TemplatePolicyModel::new(), &registry)
            .with_golden_examples(golden_examples())
            .with_cache(16);
        generator.set_policy(task, &ctx); // Warm the cache.
        b.iter(|| generator.set_policy(black_box(task), black_box(&ctx)))
    });

    c.bench_function("render_generation_prompt", |b| {
        let request = PolicyRequest {
            task: task.to_owned(),
            context: ctx.clone(),
            tool_docs: registry.documentation(),
            golden_examples: golden_examples(),
        };
        b.iter(|| render_prompt(black_box(&request)))
    });

    c.bench_function("render_policy_text", |b| {
        let mut generator = PolicyGenerator::new(TemplatePolicyModel::new(), &registry)
            .with_golden_examples(golden_examples());
        let (policy, _) = generator.set_policy(task, &ctx);
        b.iter(|| conseca_core::render_policy(black_box(&policy)))
    });
}

criterion_group!(benches, bench_generation);
criterion_main!(benches);
