//! The repository benchmark: whole agent tasks, open-loop served checks,
//! and durable revoke churn, plus a traced per-layer run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <agent_tasks|check_stream|revoke_churn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result object
//! (`correct`, `attempted`, `failed`, `metrics`); the lines before it
//! hold diagnostics and, in a traced run, the per-layer table. See
//! `perfbench/README.md` for the rationale.

mod agent_tasks;
mod check_stream;
mod hist;
mod inputs;
mod openloop;
mod probe;
mod report;
mod revoke_churn;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::{result_line, Cfg, Metric, Outcome};
use util::Host;

const WORKLOADS: [&str; 3] = ["agent_tasks", "check_stream", "revoke_churn"];

/// Seconds each companion workload runs in a traced run, to measure the
/// layers the named workload does not pass through.
const COMPANION_SECONDS: f64 = 2.0;

/// Every per-layer metric: name, unit, the workload whose traced pass
/// measures it, and the end-to-end metric (on that workload) it should
/// move.
const LAYERS: [(&str, &str, &str, &str); 32] = [
    ("agent.round_trip_us", "us", "agent_tasks", "main_p50_us"),
    ("agent.round_trips", "count", "agent_tasks", "main_p50_us"),
    ("agent.requests_per_task", "count", "agent_tasks", "main_p50_us"),
    ("agent.enforce_share", "ratio", "agent_tasks", "bounds any check-path win on main_p50_us"),
    ("generate.set_policy_us", "us", "agent_tasks", "side_p50_us, main p90 (diagnostic)"),
    ("generate.miss_ratio", "ratio", "agent_tasks", "ops_per_s, main p90 (diagnostic)"),
    ("generate.priced_llm_s", "s", "agent_tasks", "main p90 (priced, not run)"),
    ("context.build_us", "us", "agent_tasks", "main_p50_us"),
    ("compile.policy_us", "us", "agent_tasks", "side_p50_us, main p90 (diagnostic)"),
    ("client.submit_us", "us", "check_stream", "main_p50_us, ops_per_s"),
    ("wire.request_encode_ns", "ns", "check_stream", "main_p50_us, side_p50_us"),
    ("wire.request_decode_ns", "ns", "check_stream", "main_p50_us, side_p50_us"),
    ("wire.response_encode_ns", "ns", "check_stream", "main_p50_us, side_p50_us"),
    ("wire.response_decode_ns", "ns", "check_stream", "main_p50_us, side_p50_us"),
    ("store.lookup_ns", "ns", "check_stream", "main_p50_us, ops_per_s"),
    ("check.compiled_ns", "ns", "check_stream", "main_p50_us, ops_per_s"),
    ("server.residual_us", "us", "check_stream", "main_p50_us"),
    ("server.residual_share", "ratio", "check_stream", "main_p50_us"),
    ("dispatch.checks_per_round", "count", "check_stream", "side_p50_us, ops_per_s"),
    ("dispatch.coalesced_share", "ratio", "check_stream", "side_p50_us, ops_per_s"),
    ("store.hit_ratio", "ratio", "check_stream", "side_p50_us, ops_per_s"),
    ("journal.append_sync_us", "us", "revoke_churn", "main_p50_us"),
    ("engine.revoke_us", "us", "revoke_churn", "main_p50_us"),
    ("push.fanout_residual_us", "us", "revoke_churn", "main_p50_us, side_p50_us"),
    ("cache.refetch_us", "us", "revoke_churn", "cached check p50 (diagnostic)"),
    ("cache.hit_ratio", "ratio", "revoke_churn", "cached check p50 (diagnostic)"),
    ("cache.fallbacks", "count", "revoke_churn", "cached check p50 (diagnostic)"),
    ("daemon.snapshot_tick_us", "us", "revoke_churn", "side_p50_us"),
    ("daemon.recover_ms", "ms", "revoke_churn", "setup_s"),
    ("daemon.recovered_installed", "count", "revoke_churn", "setup_s"),
    ("daemon.recovered_skipped_revoked", "count", "revoke_churn", "setup_s"),
    ("trace.overhead_ratio", "ratio", "named", "traced / untraced main_p50_us"),
];

/// Processes an untraced run of each workload is split over by default.
/// Served-check latency on a small shared host varies more between
/// processes (thread placement, wake-up paths) and over time (other
/// tenants) than within one process, so the open-loop workloads measure
/// in several processes and report, per metric, the median of the
/// better half of them: contention only ever makes a process slower,
/// and the better half is steady while a few processes ran contended.
/// `agent_tasks` is steady in one.
fn default_processes(workload: &str) -> usize {
    match workload {
        "agent_tasks" => 1,
        "check_stream" => 8,
        _ => 5,
    }
}

/// Longest a child process may run past its measured seconds.
const CHILD_SLACK: Duration = Duration::from_secs(60);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    processes: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut processes = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value != "0",
            "--processes" => {
                processes = Some(value.parse().map_err(|e| format!("--processes: {e}"))?)
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; expected one of {WORKLOADS:?}"));
    }
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    let processes = processes.unwrap_or_else(|| default_processes(&workload));
    if !(1..=16).contains(&processes) {
        return Err(format!("--processes {processes} out of range"));
    }
    Ok(Args { workload, seed, seconds, trace, processes })
}

/// What one child process reported.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

/// Reads the fields of a result line this program printed.
fn parse_result(line: &str) -> Option<ChildResult> {
    let field = |key: &str| -> Option<&str> {
        let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
        let rest = &line[at..];
        Some(&rest[..rest.find([',', '}'])?])
    };
    let metrics_at = line.find("\"metrics\": {")? + 12;
    let metrics = line[metrics_at..]
        .split("}, ")
        .filter_map(|entry| {
            let name = entry.trim_start_matches(['{', ' ']).strip_prefix('"')?;
            let (name, rest) = name.split_once('"')?;
            let value = rest.split("\"value\": ").nth(1)?;
            let value = value[..value.find([',', '}'])?].parse().ok()?;
            Some((name.to_owned(), value))
        })
        .collect();
    Some(ChildResult {
        correct: field("correct")? == "true",
        attempted: field("attempted")?.parse().ok()?,
        failed: field("failed")?.parse().ok()?,
        metrics,
    })
}

/// Operations counted over a run, and its metrics.
struct Tally {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Default for Tally {
    fn default() -> Self {
        Tally { correct: true, attempted: 0, failed: 0, metrics: Vec::new() }
    }
}

/// Runs `processes` untraced child processes of this program, each for
/// an equal share of `seconds` on the same seed, forwards their
/// diagnostics, and reports each metric's median over the better half
/// of the children (see [`default_processes`]).
fn run_split(workload: &str, seed: u64, seconds: f64, processes: usize) -> Result<Tally, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let share = seconds / processes as f64;
    let budget = Duration::from_secs_f64(share) + CHILD_SLACK;
    let mut results = Vec::new();
    let mut failed_children = 0u64;
    for _ in 0..processes {
        let mut child = std::process::Command::new(&exe)
            .args(["--workload", workload, "--seed", &seed.to_string()])
            .args(["--seconds", &share.to_string(), "--trace", "0", "--processes", "1"])
            .stdout(std::process::Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn a measuring process: {e}"))?;
        let mut stdout = child.stdout.take().expect("stdout is piped");
        let reader = std::thread::spawn(move || {
            let mut text = String::new();
            let _ = std::io::Read::read_to_string(&mut stdout, &mut text);
            text
        });
        let started = Instant::now();
        let status = loop {
            if let Some(status) = child.try_wait().map_err(|e| format!("wait: {e}"))? {
                break Some(status);
            }
            if started.elapsed() > budget {
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        let text = reader.join().expect("reader thread panicked");
        let lines: Vec<&str> = text.lines().collect();
        let parsed = lines.last().and_then(|line| parse_result(line));
        match (status, parsed) {
            (Some(status), Some(result)) if status.success() => {
                for line in &lines[..lines.len() - 1] {
                    println!("{line}");
                }
                results.push(result);
            }
            _ => failed_children += 1,
        }
    }
    if results.is_empty() {
        return Err("no measuring process produced a result".into());
    }
    let metrics = E2E
        .iter()
        .map(|&(name, unit, higher_is_better)| {
            let values: Vec<f64> = results
                .iter()
                .filter_map(|r| r.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| *v))
                .collect();
            Metric { name, value: util::better_half_median(values, higher_is_better), unit }
        })
        .collect();
    Ok(Tally {
        correct: failed_children == 0 && results.iter().all(|r| r.correct),
        attempted: results.iter().map(|r| r.attempted).sum::<u64>() + failed_children,
        failed: results.iter().map(|r| r.failed).sum::<u64>() + failed_children,
        metrics,
    })
}

/// Every end-to-end metric, its unit, and whether higher is better, as
/// each workload reports them. Tail percentiles are diagnostics: on a
/// shared 2-core host a contended minute moves p90 several-fold.
const E2E: [(&str, &str, bool); 5] = [
    ("main_p50_us", "us", false),
    ("side_p50_us", "us", false),
    ("ops_per_s", "1/s", true),
    ("setup_s", "s", false),
    ("peak_rss_mb", "MB", false),
];

fn run(workload: &str, cfg: &Cfg) -> Outcome {
    let ticks = util::cpu_ticks();
    let mut out = match workload {
        "agent_tasks" => agent_tasks::run(cfg),
        "check_stream" => check_stream::run(cfg),
        "revoke_churn" => revoke_churn::run(cfg),
        other => unreachable!("workload {other} was validated"),
    };
    out.diag("cpu_steal_pct", format!("{:.2}", util::steal_pct(ticks, util::cpu_ticks())));
    let _ = std::fs::remove_dir_all(&cfg.data_dir);
    out
}

/// The traced run: the named workload untraced (in a child process) and
/// traced (in this one) for half the time each, so each half is the
/// first server of its process; their ratio is the tracing overhead.
/// Then each other workload runs traced briefly for the layers only it
/// passes through. Returns the traced outcomes, the per-layer metrics,
/// and the untraced half's tally.
fn traced(
    args: &Args,
    cfg: &Cfg,
    host: &Host,
) -> Result<(Vec<Outcome>, Vec<Metric>, Tally), String> {
    let untraced = run_split(&args.workload, args.seed, cfg.seconds / 2.0, 1)?;
    let named = run(&args.workload, &Cfg { seconds: cfg.seconds / 2.0, ..cfg.clone() });
    let p50 = |metrics: &[Metric]| {
        metrics.iter().find(|m| m.name == "main_p50_us").map_or(0.0, |m| m.value)
    };
    let ratio = p50(&named.e2e) / p50(&untraced.metrics);
    let mut outcomes = vec![named];
    for other in WORKLOADS.iter().filter(|w| **w != args.workload) {
        let companion = Cfg { seconds: COMPANION_SECONDS, trace: true, ..cfg.clone() };
        outcomes.push(run(other, &companion));
    }
    let mut layers = Vec::new();
    println!("per-layer table (traced run of {}; {} cores)", args.workload, host.nproc);
    println!("{:<34} {:>14} {:<6} {:<13} should move", "metric", "value", "unit", "measured on");
    for (name, unit, source, moves) in LAYERS {
        let value = if name == "trace.overhead_ratio" {
            Some(ratio)
        } else {
            outcomes.iter().flat_map(|o| o.layers.iter()).find(|m| m.name == name).map(|m| m.value)
        };
        // Every layer has a traced pass that measures it; a missing one is
        // a benchmark bug, reported and kept visible as 0.
        let value = value.unwrap_or_else(|| {
            eprintln!("perfbench: layer {name} was not measured");
            0.0
        });
        println!("{name:<34} {value:>14.4} {unit:<6} {source:<13} {moves}");
        layers.push(Metric { name, value, unit });
    }
    let get = |name: &str| layers.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
    println!(
        "check_stream: server residual {:.2} us = {:.1}% of the low-rate round trip (reactor \
         wake, dispatcher queue, task handoffs, syscalls; splitting it needs spans inside the \
         server)",
        get("server.residual_us"),
        get("server.residual_share") * 100.0
    );
    println!("tracing overhead on {}: traced / untraced main_p50_us = {ratio:.4}", args.workload);
    println!(
        "covers ROADMAP item 1's end-to-end row and the outside-in stage costs; the stage split \
         inside the server (reactor wake vs. dispatcher queue) waits for tracing in the program"
    );
    Ok((outcomes, layers, untraced))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !args.trace && args.processes > 1 {
        return match run_split(&args.workload, args.seed, args.seconds, args.processes) {
            Ok(split) => {
                println!(
                    "{}",
                    result_line(split.correct, split.attempted, split.failed, &split.metrics)
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let host = Host::detect();
    let data_dir =
        PathBuf::from(format!(".perfbench-data/{}-{}", args.workload, std::process::id()));
    let cfg = Cfg { seed: args.seed, seconds: args.seconds, trace: args.trace, data_dir };
    let (outcomes, metrics, mut tally) = if args.trace {
        match traced(&args, &cfg, &host) {
            Ok(traced) => traced,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let out = run(&args.workload, &cfg);
        let mut metrics = out.e2e.clone();
        metrics.push(Metric { name: "peak_rss_mb", value: util::peak_rss_mb(), unit: "MB" });
        (vec![out], metrics, Tally::default())
    };
    let _ = std::fs::remove_dir(".perfbench-data");
    for out in &outcomes {
        println!("{}", out.diag_json(&host));
        tally.attempted += out.attempted;
        tally.failed += out.failed;
        tally.correct &= out.mismatched == 0 && out.failed == 0;
    }
    println!("{}", result_line(tally.correct, tally.attempted, tally.failed, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_result_line_parses_back() {
        let metrics = [
            Metric { name: "main_p50_us", value: 1.5, unit: "us" },
            Metric { name: "ops_per_s", value: 20_000.25, unit: "1/s" },
        ];
        let parsed = parse_result(&result_line(false, 10, 1, &metrics)).expect("parses");
        assert!(!parsed.correct);
        assert_eq!((parsed.attempted, parsed.failed), (10, 1));
        assert_eq!(
            parsed.metrics,
            vec![("main_p50_us".to_owned(), 1.5), ("ops_per_s".to_owned(), 20_000.25)]
        );
    }
}
