//! Benchmarks the compiled-policy engine against the interpreted
//! baseline: cold compilation cost, hot single-check latency (the
//! acceptance target: compiled ≥2× faster than interpreted on
//! regex-constrained policies), store lookup overhead, multi-threaded
//! throughput over a shared `PolicyStore` at 1/2/4/8 threads, and
//! process startup — cold regenerate+compile vs. warm-start from a
//! policy snapshot (the persistence acceptance target: warm must
//! measurably beat cold). The measured numbers are recorded in
//! `BENCH_engine.json` at the repository root alongside the hardware
//! caveats.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use conseca_core::{
    is_allowed, ArgConstraint, CmpOp, Policy, PolicyEntry, PolicyGenerator, Predicate,
    TrajectoryEnforcer, TrajectoryPolicy, TrustedContext,
};
use conseca_engine::{
    check_parallel, decode_snapshot, CheckJob, CompiledPolicy, CompiledTrajectory, Engine,
    EngineKey,
};
use conseca_llm::TemplatePolicyModel;
use conseca_shell::ApiCall;
use conseca_workloads::golden_examples;

/// The paper's §4.1 policy: three regex constraints on `send_email`.
fn regex_policy() -> Policy {
    let mut p = Policy::new("respond to urgent work emails");
    p.set(
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
    p.set("delete_email", PolicyEntry::deny("no deletions in this task"));
    p
}

/// The same shape written in the predicate DSL.
fn dsl_policy() -> Policy {
    let mut p = Policy::new("respond to urgent work emails (dsl)");
    p.set(
        "send_email",
        PolicyEntry::allow(
            vec![
                ArgConstraint::Dsl(Predicate::Eq("alice".into())),
                ArgConstraint::Dsl(Predicate::Suffix("@work.com".into())),
                ArgConstraint::Dsl(Predicate::All(vec![
                    Predicate::Contains("urgent".into()),
                    Predicate::Not(Box::new(Predicate::Num(CmpOp::Lt, 0))),
                ])),
            ],
            "urgent responses from alice to work.com",
        ),
    );
    p
}

/// A wide policy: the shape a generated policy takes over a large
/// registry, with a mix of regex and DSL constraints.
fn wide_policy(entries: usize) -> Policy {
    let mut p = Policy::new("wide synthetic policy");
    for i in 0..entries {
        let name = format!("api_{i:03}");
        match i % 3 {
            0 => {
                p.set(
                    &name,
                    PolicyEntry::allow(
                        vec![ArgConstraint::regex(&format!("^/home/user{i}/")).unwrap()],
                        "path-scoped",
                    ),
                );
            }
            1 => {
                p.set(
                    &name,
                    PolicyEntry::allow(
                        vec![ArgConstraint::Dsl(Predicate::Prefix(format!("/srv/{i}/")))],
                        "dsl-scoped",
                    ),
                );
            }
            _ => {
                p.set(&name, PolicyEntry::deny("not in this context"));
            }
        }
    }
    p
}

fn send_call(i: usize) -> ApiCall {
    ApiCall::new(
        "email",
        "send_email",
        vec![
            "alice".into(),
            "bob@work.com".into(),
            format!("urgent: rack {i} is down"),
            "On it.".into(),
        ],
    )
}

fn bench_compile(c: &mut Criterion) {
    let paper = regex_policy();
    let wide = wide_policy(48);
    let mut group = c.benchmark_group("engine_compile");
    group.bench_function("paper_policy_cold", |b| {
        b.iter(|| CompiledPolicy::compile(black_box(&paper)))
    });
    group.bench_function("wide_policy_48_cold", |b| {
        b.iter(|| CompiledPolicy::compile(black_box(&wide)))
    });
    group.finish();
}

fn bench_hot_check(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_check_regex");
    let policy = regex_policy();
    let compiled = CompiledPolicy::compile(&policy);
    let call = send_call(4);
    group.bench_function("interpreted_is_allowed", |b| {
        b.iter(|| is_allowed(black_box(&call), black_box(&policy)))
    });
    group.bench_function("compiled_check", |b| b.iter(|| compiled.check(black_box(&call))));
    group.bench_function("compiled_allows", |b| b.iter(|| compiled.allows(black_box(&call))));
    group.finish();

    let mut group = c.benchmark_group("engine_check_dsl");
    let policy = dsl_policy();
    let compiled = CompiledPolicy::compile(&policy);
    group.bench_function("interpreted_is_allowed", |b| {
        b.iter(|| is_allowed(black_box(&call), black_box(&policy)))
    });
    group.bench_function("compiled_check", |b| b.iter(|| compiled.check(black_box(&call))));
    group.finish();
}

fn bench_store_path(c: &mut Criterion) {
    let engine = Engine::default();
    let ctx = TrustedContext::for_user("alice");
    let policy = regex_policy();
    engine.install("acme", &policy.task, &ctx, &policy).expect("in-memory journal");
    let task = policy.task.clone();
    let call = send_call(4);
    let mut group = c.benchmark_group("engine_store");
    group.bench_function("lookup_plus_check", |b| {
        b.iter(|| engine.check(black_box("acme"), black_box(&task), &ctx, black_box(&call)))
    });
    group.bench_function("store_get_hot", |b| {
        let key = EngineKey::new("acme", &task, &ctx);
        b.iter(|| engine.store().get(black_box(&key)))
    });
    group.finish();
}

fn bench_thread_scaling(c: &mut Criterion) {
    // 16 tenants sharing one engine, 20k mixed checks per run. Criterion
    // reports ns per full run; per-check cost = reported / 20_000.
    const JOBS: usize = 20_000;
    let engine = Arc::new(Engine::default());
    let ctx = TrustedContext::for_user("alice");
    let policy = regex_policy();
    let mut jobs = Vec::with_capacity(JOBS);
    let tenants: Vec<String> = (0..16).map(|i| format!("tenant-{i:02}")).collect();
    for tenant in &tenants {
        engine.install(tenant, &policy.task, &ctx, &policy).expect("in-memory journal");
    }
    for i in 0..JOBS {
        let tenant = &tenants[i % tenants.len()];
        let key = EngineKey::new(tenant, &policy.task, &ctx);
        let call = match i % 10 {
            8 => ApiCall::new("email", "delete_email", vec![i.to_string()]),
            9 => ApiCall::new("fs", "rm_r", vec![format!("/home/alice/{i}")]),
            _ => send_call(i),
        };
        jobs.push(CheckJob::new(tenant, key, call));
    }
    let mut group = c.benchmark_group("engine_scaling_20k");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, &threads| {
            b.iter(|| check_parallel(&engine, black_box(&jobs), threads).allowed)
        });
    }
    group.finish();
}

fn bench_warm_start(c: &mut Criterion) {
    // Process startup for a tenant with 24 live task policies: the cost
    // every process paid before persistence (regenerate + compile each
    // policy) vs. warm-starting from a snapshot (verify + decode +
    // re-compile). Same end state either way — a store serving all 24
    // keys — so the two rows are directly comparable.
    const TASKS: usize = 24;
    let registry = conseca_shell::default_registry();
    let ctx = {
        let mut ctx = TrustedContext::for_user("alice");
        ctx.email_addresses = vec!["alice@work.com".into(), "bob@work.com".into()];
        ctx.email_categories = vec!["Inbox".into(), "Archive".into()];
        ctx.fs_tree = "alice/\n  Documents/\n  Archive/\n".into();
        ctx
    };
    let tasks: Vec<String> = (0..TASKS)
        .map(|i| format!("triage mailbox shard {i}: respond to urgent email and archive the rest"))
        .collect();

    let cold_start = |tasks: &[String]| -> Engine {
        let engine = Engine::default();
        let mut generator = PolicyGenerator::new(TemplatePolicyModel::new(), &registry)
            .with_golden_examples(golden_examples());
        for task in tasks {
            let (policy, _) = generator.set_policy(task, &ctx);
            engine.install("acme", task, &ctx, &policy).expect("in-memory journal");
        }
        engine
    };

    // The snapshot a prior process persisted.
    let snapshot = cold_start(&tasks).store().export_snapshot("acme").expect("export").bytes;

    let mut group = c.benchmark_group("engine_startup_24_policies");
    group.sample_size(10);
    group.bench_function("cold_regenerate_compile", |b| {
        b.iter(|| cold_start(black_box(&tasks)).store().len())
    });
    group.bench_function("warm_start_import", |b| {
        b.iter(|| {
            Engine::default()
                .import_snapshot("acme", black_box(&snapshot))
                .expect("import")
                .installed
        })
    });
    group.bench_function("snapshot_decode_verify_only", |b| {
        b.iter(|| decode_snapshot(black_box(&snapshot)).expect("decode").entries.len())
    });
    group.bench_function("snapshot_export", |b| {
        let engine = cold_start(&tasks);
        b.iter(|| engine.store().export_snapshot(black_box("acme")).expect("export").bytes.len())
    });
    group.finish();
}

fn bench_trajectory_sequences(c: &mut Criterion) {
    // Compiled trajectory automata vs. the interpreted enforcer over
    // full sequences (the acceptance target: compiled ≥1.5× on
    // sequence-heavy workloads). Each iteration drives the whole
    // sequence check-and-record from a fresh state, so the interpreted
    // side pays its history scans and the compiled side its counter
    // updates, end to end.
    const SEQ: usize = 256;
    let apis = ["send_email", "read_email", "read_secret", "search", "ls", "ping"];
    let calls: Vec<ApiCall> = (0..SEQ)
        .map(|i| ApiCall::new("t", apis[i % apis.len()], vec![format!("arg-{}", i % 7)]))
        .collect();

    // Budget-heavy: a total budget plus a rate limit on every API. The
    // interpreted side counts the full history per rate rule per check;
    // the compiled side bumps per-rule counters.
    let budget_heavy = {
        let mut t = TrajectoryPolicy::new().budget(SEQ * 2);
        for api in apis {
            t = t.limit(api, SEQ, "headroom: never actually trips");
        }
        t
    };
    // Ordering-heavy: latched order rules and windows across the API
    // pool. The interpreted side rescans history for each trigger; the
    // compiled side reads latched booleans and pruned step deques.
    let ordering_heavy = {
        let mut t = TrajectoryPolicy::new();
        for pair in apis.windows(2) {
            t = t.forbid_after(pair[0], pair[1], "declared order");
        }
        for api in &apis[..3] {
            t = t.limit_in_window(api, SEQ, 16, "headroom: never actually trips");
        }
        t
    };

    let mut group = c.benchmark_group(format!("engine_trajectory_seq{SEQ}"));
    group.sample_size(10);
    for (label, policy) in [("budget_heavy", &budget_heavy), ("ordering_heavy", &ordering_heavy)] {
        let compiled = CompiledTrajectory::compile(policy).expect("non-empty trajectory");
        group.bench_function(format!("{label}/interpreted"), |b| {
            b.iter(|| {
                let mut enforcer = TrajectoryEnforcer::new(policy.clone());
                let mut allowed = 0usize;
                for call in &calls {
                    if enforcer.check(black_box(call)).allowed {
                        enforcer.record(call);
                        allowed += 1;
                    }
                }
                allowed
            })
        });
        group.bench_function(format!("{label}/compiled"), |b| {
            b.iter(|| {
                let mut state = compiled.new_state();
                let mut allowed = 0usize;
                for call in &calls {
                    if compiled.check(&state, black_box(call)).allowed {
                        compiled.record(&mut state, call);
                        allowed += 1;
                    }
                }
                allowed
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_compile,
    bench_hot_check,
    bench_store_path,
    bench_thread_scaling,
    bench_warm_start,
    bench_trajectory_sequences
);
criterion_main!(benches);
