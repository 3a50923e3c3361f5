//! `agent_tasks`: the 20 Table-A tasks under the four policy modes,
//! each run as a whole agent task against a served engine.
//!
//! Closed loop, one agent at a time. Each agent gets a fresh world and
//! its own in-process duplex connection (`Agent::with_remote_engine`),
//! opened and closed for that one task. A round starts a fresh server
//! and runs every (task, mode, trial) cell once in a seeded order, so
//! the first trial of each policy key is a store miss (generate and
//! install) and later trials are fetch hits; rounds repeat until the
//! run's time is spent. World build and agent construction are set-up,
//! outside the timed region.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use conseca_agent::{build_trusted_context, Agent, AgentConfig, PolicyMode};
use conseca_core::PolicyGenerator;
use conseca_engine::{CompiledPolicy, Engine};
use conseca_llm::{LatencyModel, TemplatePolicyModel};
use conseca_serve::{Client, ServeConfig, Server, ServerHandle};
use conseca_shell::default_registry;
use conseca_workloads::{
    all_tasks, check_goal, golden_examples, make_planner, run_task_once, Env, CURRENT_USER,
};

use crate::hist::Hist;
use crate::probe::{ProbeStream, RoundTrips, Watchdog};
use crate::report::{num, Cfg, Generator, Outcome};
use crate::util::{better_half_median, Digest, Rng};

/// Trials per (task, mode) key in one round; the first is the store miss.
const TRIALS: usize = 5;
/// Trial numbers are drawn from `0..TRIAL_POOL`, so the seed picks which
/// planner variants run.
const TRIAL_POOL: usize = 16;
/// Longest one task may take before it counts as stuck.
const TASK_BUDGET: Duration = Duration::from_secs(10);
const TENANT: &str = "agents";

/// One (task, mode, trial) cell and what the in-process run produced.
struct Cell {
    task: usize,
    description: &'static str,
    mode: PolicyMode,
    trial: usize,
    /// `(completed, executed, denials)` from in-process `run_task_once`.
    expected: (bool, usize, usize),
}

/// What one served task produced, for comparison with [`Cell::expected`].
fn observed(report: &conseca_agent::TaskReport, task: usize, env: &Env) -> (bool, usize, usize) {
    (report.claimed_complete && check_goal(task, env), report.executed, report.denials)
}

/// Per-layer accumulators of the traced run.
#[derive(Default)]
struct Layers {
    round_trips: Hist,
    requests: u64,
    tasks: u64,
    task_ns: f64,
    set_policy: Hist,
    priced_llm_s: Vec<f64>,
    context_build: Hist,
    compile: Hist,
    misses: u64,
}

/// Builds the cells for `seed`: every (task, mode) key with `TRIALS`
/// distinct seeded trial numbers, each scored by the in-process oracle.
fn cells(seed: u64, digest: &mut Digest) -> Vec<Cell> {
    let mut rng = Rng::new(seed, 0xA6E7);
    let mut out = Vec::new();
    for task in all_tasks() {
        for mode in PolicyMode::all() {
            let mut trials: Vec<usize> = (0..TRIAL_POOL).collect();
            rng.shuffle(&mut trials);
            for &trial in &trials[..TRIALS] {
                let oracle = run_task_once(task.id, trial, mode, false);
                let expected = (oracle.completed, oracle.report.executed, oracle.report.denials);
                out.push(Cell {
                    task: task.id,
                    description: task.description,
                    mode,
                    trial,
                    expected,
                });
            }
        }
    }
    for cell in &out {
        digest.u64(cell.task as u64);
        digest.str(cell.mode.label());
        digest.u64(cell.trial as u64);
    }
    out
}

/// Runs the workload.
pub fn run(cfg: &Cfg) -> Outcome {
    let mut out = Outcome::new("agent_tasks", cfg);
    let mut digest = Digest::default();
    let cells = cells(cfg.seed, &mut digest);
    let mut rng = Rng::new(cfg.seed, 0x0DE7);

    let dog = Watchdog::start();
    let mut all = Hist::new();
    let mut miss = Hist::new();
    let mut hit = Hist::new();
    let mut setup = Hist::new();
    let mut layers = Layers::default();
    // Per round: all tasks, and the tasks that missed the store.
    let mut rounds: Vec<(Hist, Hist)> = Vec::new();
    let mut workers = 0u64;
    let start = Instant::now();
    while rounds.is_empty() || start.elapsed() < cfg.run_time() {
        let mut order: Vec<usize> = (0..cells.len()).collect();
        rng.shuffle(&mut order);
        for &i in &order {
            digest.u64(i as u64);
        }
        let server = Server::start(Arc::new(Engine::default()), ServeConfig::default());
        workers = server.metrics().workers;
        let (mut round_all, mut round_miss) = (Hist::new(), Hist::new());
        for &i in &order {
            let cell = &cells[i];
            out.attempted += 1;
            match run_cell(cell, &server, &dog, cfg.trace, &mut setup, &mut layers) {
                Some((report_ok, task_time, store_hit)) => {
                    if !report_ok {
                        out.mismatched += 1;
                    }
                    all.record_dur(task_time);
                    round_all.record_dur(task_time);
                    if store_hit {
                        hit.record_dur(task_time);
                    } else {
                        miss.record_dur(task_time);
                        round_miss.record_dur(task_time);
                    }
                }
                None => out.failed += 1,
            }
        }
        server.shutdown();
        rounds.push((round_all, round_miss));
    }
    drop(dog);

    // Every round runs the same cells, so rounds are comparable samples;
    // each metric is the median of the better half of the rounds, which
    // contention from other tenants (it only slows a round) leaves alone.
    let over_rounds = |f: &dyn Fn(&(Hist, Hist)) -> f64, higher_is_better| {
        better_half_median(rounds.iter().map(f).collect(), higher_is_better)
    };
    out.e2e("main_p50_us", over_rounds(&|r| r.0.quantile(0.5) * 1e-3, false), "us");
    out.diag("main_p90_us", num(over_rounds(&|r| r.0.quantile(0.9) * 1e-3, false)));
    out.e2e("side_p50_us", over_rounds(&|r| r.1.quantile(0.5) * 1e-3, false), "us");
    out.diag("side_p90_us", num(over_rounds(&|r| r.1.quantile(0.9) * 1e-3, false)));
    out.e2e("ops_per_s", over_rounds(&|r| r.0.count() as f64 / (r.0.sum() * 1e-9), true), "1/s");
    out.e2e("setup_s", setup.quantile(0.5) * 1e-9, "s");
    let all_us = all.summary(1e-3);
    let miss_us = miss.summary(1e-3);

    out.diag("schedule_digest", format!("\"{}\"", digest.hex()));
    out.diag("server_workers", workers.to_string());
    out.generator = Generator { threads: 1, connections: 1, shape: "closed loop, one agent" };
    out.diag("rounds", rounds.len().to_string());
    out.diag("cells_per_round", cells.len().to_string());
    out.diag("task_us", all_us.json());
    out.diag("task_p95_us", format!("{:.4}", all.quantile(0.95) * 1e-3));
    out.diag("store_hit_task_us", hit.summary(1e-3).json());
    out.diag("store_miss_task_us", miss_us.json());
    out.diag("setup_us", setup.summary(1e-3).json());

    if cfg.trace {
        let rt = layers.round_trips.summary(1e-3);
        out.layer("agent.round_trip_us", rt.p50, "us");
        out.layer("agent.round_trips", rt.n as f64, "count");
        out.layer(
            "agent.requests_per_task",
            layers.requests as f64 / layers.tasks.max(1) as f64,
            "count",
        );
        out.layer(
            "agent.enforce_share",
            layers.round_trips.sum() / layers.task_ns.max(1.0),
            "ratio",
        );
        out.layer("generate.set_policy_us", layers.set_policy.quantile(0.5) * 1e-3, "us");
        out.layer(
            "generate.miss_ratio",
            layers.misses as f64 / layers.tasks.max(1) as f64,
            "ratio",
        );
        let priced = if layers.priced_llm_s.is_empty() {
            0.0
        } else {
            layers.priced_llm_s.iter().sum::<f64>() / layers.priced_llm_s.len() as f64
        };
        out.layer("generate.priced_llm_s", priced, "s");
        out.layer("context.build_us", layers.context_build.quantile(0.5) * 1e-3, "us");
        out.layer("compile.policy_us", layers.compile.quantile(0.5) * 1e-3, "us");
        out.diag("agent_round_trip_us", rt.json());
    }
    out
}

/// Runs one cell: `Some((matches_oracle, task_time, store_hit))`, or
/// `None` when the task failed (panicked on a transport error, or ran
/// past its deadline).
fn run_cell(
    cell: &Cell,
    server: &ServerHandle,
    dog: &Watchdog,
    trace: bool,
    setup: &mut Hist,
    layers: &mut Layers,
) -> Option<(bool, Duration, bool)> {
    let t_setup = Instant::now();
    let env = Env::build();
    let registry = default_registry();
    let generator = PolicyGenerator::new(TemplatePolicyModel::new(), &registry)
        .with_golden_examples(golden_examples());
    let trips = trace.then(|| Arc::new(Mutex::new(RoundTrips::default())));
    let stream = ProbeStream::new(server.connect_stream().ok()?, trips.clone());
    let closer = stream.closer().ok()?;
    let client = Client::over(stream).ok()?;
    let mut agent = Agent::new(
        env.vfs.clone(),
        env.mail.clone(),
        CURRENT_USER,
        registry,
        generator,
        AgentConfig::for_mode(cell.mode),
    )
    .with_remote_engine(client, TENANT);
    let planner = make_planner(cell.task, cell.trial);
    setup.record_dur(t_setup.elapsed());

    if trace {
        let t = Instant::now();
        std::hint::black_box(build_trusted_context(&env.vfs, &env.mail, CURRENT_USER));
        layers.context_build.record_dur(t.elapsed());
    }
    let requests_before = server.metrics().requests;
    dog.arm(TASK_BUDGET, &closer);
    let t0 = Instant::now();
    let report = catch_unwind(AssertUnwindSafe(|| agent.run_task(cell.description, planner)));
    let task_time = t0.elapsed();
    let fired = dog.disarm();
    drop(agent);
    let report = match report {
        Ok(report) if !fired => report,
        _ => return None,
    };
    let store_hit = report.generation.cache_hit;
    let ok = observed(&report, cell.task, &env) == cell.expected;

    if let Some(trips) = trips {
        let mut trips = trips.lock().expect("round-trip recorder poisoned");
        trips.finish();
        layers.round_trips.merge(&trips.hist);
        layers.requests += server.metrics().requests - requests_before;
        layers.tasks += 1;
        layers.task_ns += task_time.as_nanos() as f64;
        if !store_hit {
            layers.misses += 1;
        }
        if !store_hit && cell.mode == PolicyMode::Conseca {
            // Replay the generation the miss paid for, on a fresh world
            // so the context matches the one the agent resolved against.
            let fresh = Env::build();
            let ctx = build_trusted_context(&fresh.vfs, &fresh.mail, CURRENT_USER);
            let registry = default_registry();
            let mut generator = PolicyGenerator::new(TemplatePolicyModel::new(), &registry)
                .with_golden_examples(golden_examples());
            let t = Instant::now();
            let (_, stats) = generator.set_policy(cell.description, &ctx);
            layers.set_policy.record_dur(t.elapsed());
            let priced =
                LatencyModel::large_hosted().estimate(stats.prompt_tokens, stats.output_tokens);
            layers.priced_llm_s.push(priced.as_secs_f64());
        }
        let t = Instant::now();
        std::hint::black_box(CompiledPolicy::compile(&report.policy));
        layers.compile.record_dur(t.elapsed());
    }
    Some((ok, task_time, store_hit))
}
