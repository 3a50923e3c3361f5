//! Run configuration, per-run outcomes, and the result line.

use std::path::PathBuf;
use std::time::Duration;

use crate::util::Host;

/// How one workload run is configured.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Seconds the measured region may take.
    pub seconds: f64,
    /// Whether the per-layer wrappers and replays are switched on.
    pub trace: bool,
    /// Scratch directory for durable state, inside the checkout.
    pub data_dir: PathBuf,
}

impl Cfg {
    /// The measured region's length.
    pub fn run_time(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// A named metric value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
}

/// The load generator's shape, recorded with every result.
#[derive(Debug, Clone, Copy, Default)]
pub struct Generator {
    /// Threads that generate load.
    pub threads: usize,
    /// Client connections they use.
    pub connections: usize,
    /// Open or closed loop, in words.
    pub shape: &'static str,
}

/// What one workload run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Whether the run was traced.
    pub traced: bool,
    /// The load generator's shape.
    pub generator: Generator,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (error, refusal, or deadline).
    pub failed: u64,
    /// Operations whose output disagreed with the oracle.
    pub mismatched: u64,
    /// End-to-end metrics.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Diagnostic fields, as `(key, JSON value)`.
    pub diag: Vec<(String, String)>,
}

impl Outcome {
    /// An empty outcome for `workload`.
    pub fn new(workload: &'static str, cfg: &Cfg) -> Self {
        Outcome {
            workload,
            traced: cfg.trace,
            generator: Generator::default(),
            attempted: 0,
            failed: 0,
            mismatched: 0,
            e2e: Vec::new(),
            layers: Vec::new(),
            diag: Vec::new(),
        }
    }

    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.e2e.push(Metric { name, value, unit });
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layers.push(Metric { name, value, unit });
    }

    /// Records a diagnostic (`value` is JSON text).
    pub fn diag(&mut self, key: &str, value: String) {
        self.diag.push((key.to_owned(), value));
    }

    /// The diagnostics line: everything recorded, plus the host facts,
    /// as one JSON object.
    pub fn diag_json(&self, host: &Host) -> String {
        let g = self.generator;
        let mut fields = vec![
            format!("\"workload\": \"{}\"", self.workload),
            format!("\"traced\": {}", self.traced),
            format!("\"nproc\": {}", host.nproc),
            format!("\"git_rev\": \"{}\"", host.git_rev),
            format!(
                "\"generator\": {{\"threads\": {}, \"connections\": {}, \"shape\": \"{}\", \"within_nproc\": {}}}",
                g.threads,
                g.connections,
                g.shape,
                g.threads <= host.nproc && g.connections <= host.nproc
            ),
            format!("\"attempted\": {}", self.attempted),
            format!("\"failed\": {}", self.failed),
            format!("\"mismatched\": {}", self.mismatched),
        ];
        fields.extend(self.e2e.iter().map(|m| format!("\"{}\": {}", m.name, num(m.value))));
        fields.extend(self.diag.iter().map(|(k, v)| format!("\"{k}\": {v}")));
        format!("{{{}}}", fields.join(", "))
    }
}

/// A JSON number with all measured digits (finite values only; a
/// non-finite value becomes 0 so the line stays valid JSON).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result line the benchmark prints last.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, num(m.value), m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}
