//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no registry access, so the workspace's benches
//! link against this minimal harness instead. It keeps Criterion's API shape
//! (`criterion_group!`, `criterion_main!`, groups, `Bencher::iter`,
//! `black_box`) and reports p50 and p99 per-iteration wall-clock time over
//! the collected samples. It does no further statistical analysis —
//! numbers are for relative comparison between benches in one run, which
//! is what the repo's throughput baselines need.

use std::fmt::Display;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Identifies one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `name/parameter` style id.
    pub fn new(name: impl Display, parameter: impl Display) -> Self {
        BenchmarkId { id: format!("{name}/{parameter}") }
    }

    /// Id from the parameter alone.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId { id: parameter.to_string() }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_owned() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { id: s }
    }
}

/// Passed to the closure under measurement.
pub struct Bencher {
    samples: Vec<Duration>,
    sample_size: usize,
}

impl Bencher {
    /// Measures `f`, collecting per-iteration timings.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm up and estimate a per-call cost so one sample is ~1ms.
        let warmup_start = Instant::now();
        let mut warmup_iters = 0u64;
        while warmup_start.elapsed() < Duration::from_millis(20) {
            black_box(f());
            warmup_iters += 1;
        }
        let per_call = warmup_start.elapsed().as_nanos().max(1) / u128::from(warmup_iters.max(1));
        let iters_per_sample = (1_000_000 / per_call.max(1)).clamp(1, 1_000_000) as u64;

        self.samples.clear();
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(f());
            }
            self.samples.push(start.elapsed() / iters_per_sample as u32);
        }
    }

    /// The q-th percentile (0.0..=1.0) of the per-iteration sample
    /// means. Each sample already averages over ~1ms of iterations, so
    /// this is a coarse tail — it catches scheduler stalls and lock
    /// contention between samples, not single-iteration outliers.
    fn percentile(&mut self, q: f64) -> Duration {
        if self.samples.is_empty() {
            return Duration::ZERO;
        }
        self.samples.sort();
        let rank = ((self.samples.len() as f64 - 1.0) * q).round() as usize;
        self.samples[rank.min(self.samples.len() - 1)]
    }
}

/// The row filter: the first argument that is not a flag (`cargo bench`
/// passes `--bench` itself), as in `cargo bench --bench engine --
/// engine_scaling`. `None` when there is none.
fn filter_from(args: impl IntoIterator<Item = String>) -> Option<String> {
    args.into_iter().find(|arg| !arg.starts_with('-'))
}

/// Whether the row `label` (`group/id`) runs under `filter`: every row
/// runs without one, and a row whose label contains it runs with one.
fn selected(filter: Option<&str>, label: &str) -> bool {
    filter.is_none_or(|filter| label.contains(filter))
}

fn run_one(label: &str, sample_size: usize, f: &mut dyn FnMut(&mut Bencher)) {
    static FILTER: OnceLock<Option<String>> = OnceLock::new();
    let filter = FILTER.get_or_init(|| filter_from(std::env::args().skip(1)));
    if !selected(filter.as_deref(), label) {
        return;
    }
    let mut b = Bencher { samples: Vec::new(), sample_size };
    f(&mut b);
    let p50 = b.percentile(0.50);
    let p99 = b.percentile(0.99);
    println!(
        "bench {label:<48} {:>12.1} ns/iter p50 {:>12.1} ns/iter p99",
        p50.as_nanos() as f64,
        p99.as_nanos() as f64
    );
}

/// A named collection of related benchmarks.
pub struct BenchmarkGroup<'c> {
    name: String,
    sample_size: usize,
    _parent: &'c mut Criterion,
}

impl<'c> BenchmarkGroup<'c> {
    /// Overrides the number of samples collected per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        run_one(&format!("{}/{}", self.name, id.id), self.sample_size, &mut f);
        self
    }

    /// Runs one parameterised benchmark in the group.
    pub fn bench_with_input<I, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let id = id.into();
        run_one(&format!("{}/{}", self.name, id.id), self.sample_size, &mut |b| f(b, input));
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// The top-level bench context.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Starts a named group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { name: name.into(), sample_size: 10, _parent: self }
    }

    /// Runs one stand-alone benchmark.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(name, 10, &mut f);
        self
    }
}

/// Declares a bench group function, Criterion-style.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Declares the bench binary's `main`, Criterion-style.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_collects_samples() {
        let mut b = Bencher { samples: Vec::new(), sample_size: 3 };
        b.iter(|| black_box(1 + 1));
        assert_eq!(b.samples.len(), 3);
    }

    #[test]
    fn percentiles_pick_median_and_tail() {
        let mut b = Bencher {
            samples: vec![
                Duration::from_nanos(30),
                Duration::from_nanos(10),
                Duration::from_nanos(20),
                Duration::from_nanos(90),
                Duration::from_nanos(40),
            ],
            sample_size: 5,
        };
        assert_eq!(b.percentile(0.50), Duration::from_nanos(30));
        assert_eq!(b.percentile(0.99), Duration::from_nanos(90));
        let mut empty = Bencher { samples: Vec::new(), sample_size: 0 };
        assert_eq!(empty.percentile(0.99), Duration::ZERO);
    }

    #[test]
    fn the_filter_is_the_first_argument_that_is_not_a_flag() {
        let args = |list: &[&str]| list.iter().map(|arg| arg.to_string()).collect::<Vec<_>>();
        assert_eq!(filter_from(args(&[])), None);
        assert_eq!(filter_from(args(&["--bench"])), None);
        assert_eq!(
            filter_from(args(&["--bench", "engine_scaling", "other"])).as_deref(),
            Some("engine_scaling")
        );
    }

    #[test]
    fn a_filter_selects_rows_by_substring_and_none_selects_all() {
        assert!(selected(None, "engine_scaling/20k"));
        assert!(selected(Some("engine_scaling"), "engine_scaling/20k"));
        assert!(selected(Some("20k"), "engine_scaling/20k"));
        assert!(!selected(Some("engine_store"), "engine_scaling/20k"));
    }

    #[test]
    fn ids_render() {
        assert_eq!(BenchmarkId::from_parameter(64).id, "64");
        assert_eq!(BenchmarkId::new("a", 2).id, "a/2");
    }
}
