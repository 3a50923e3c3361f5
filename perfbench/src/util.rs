//! Seeded randomness, deadline waits, and host facts shared by the
//! workloads.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::thread::Thread;
use std::time::Instant;

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so two uses of
    /// one seed never share a sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// Zipf-distributed ranks over `0..n` with exponent `s`: rank 0 is the
/// most popular.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n` ranks.
    pub fn new(n: usize, s: f64) -> Self {
        let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// FNV-1a over a stream of values: the digest each result records for
/// its generated schedule.
#[derive(Debug, Clone)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Mixes one integer in.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Mixes a string in, delimited.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0x1f]);
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Records when a future's waker first fired (nanoseconds since `base`),
/// and unparks the owning thread. Polling a pending response once with
/// this waker stamps its completion at the moment the client's reader
/// delivers it, without a collector thread in the way.
pub struct Stamp {
    base: Instant,
    at: AtomicU64,
    owner: Thread,
}

impl Stamp {
    /// A stamp owned by the current thread.
    pub fn new(base: Instant) -> Arc<Self> {
        Arc::new(Stamp { base, at: AtomicU64::new(0), owner: std::thread::current() })
    }

    /// Completion time since `base`, once the waker fired.
    pub fn get(&self) -> Option<u64> {
        match self.at.load(Ordering::Acquire) {
            0 => None,
            t => Some(t),
        }
    }

    /// Marks completion now (first mark wins).
    pub fn mark(&self) {
        let now = (self.base.elapsed().as_nanos() as u64).max(1);
        let _ = self.at.compare_exchange(0, now, Ordering::AcqRel, Ordering::Acquire);
    }
}

impl Wake for Stamp {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.mark();
        self.owner.unpark();
    }
}

/// Polls `fut` once with `stamp` as its waker. A future that is already
/// complete is stamped now.
pub fn poll_stamped<F: Future + Unpin>(fut: &mut F, stamp: &Arc<Stamp>) -> Poll<F::Output> {
    let waker = Waker::from(Arc::clone(stamp));
    let mut cx = Context::from_waker(&waker);
    let out = Pin::new(fut).poll(&mut cx);
    if out.is_ready() {
        stamp.mark();
    }
    out
}

/// Blocks until `fut` completes or `deadline` passes (`None`): the
/// deadline every blocking wait in the benchmark goes through, so a
/// stuck operation is counted as failed instead of hanging the run.
pub fn wait_until<F: Future + Unpin>(mut fut: F, deadline: Instant) -> Option<F::Output> {
    let stamp = Stamp::new(Instant::now());
    loop {
        if let Poll::Ready(out) = poll_stamped(&mut fut, &stamp) {
            return Some(out);
        }
        let now = Instant::now();
        if now >= deadline {
            return None;
        }
        std::thread::park_timeout(deadline - now);
    }
}

/// The median of the better half of `values` — the lower half, or the
/// upper half when higher is better; 0 when empty. Noise from other
/// tenants on a shared host only ever makes a sample worse, so this
/// stays put while up to half the samples ran contended.
pub fn better_half_median(mut values: Vec<f64>, higher_is_better: bool) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    if higher_is_better {
        values.reverse();
    }
    let half = &values[..values.len().div_ceil(2)];
    let mid = half.len() / 2;
    if half.len() % 2 == 1 {
        half[mid]
    } else {
        (half[mid - 1] + half[mid]) / 2.0
    }
}

/// Sleeps until `t` (returns at once if `t` has passed).
pub fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Shrinks this thread's timer slack to 1 ns, so an open-loop generator
/// that sleeps until each due time wakes within microseconds instead of
/// the default 50 µs slack. Best effort: a refusal leaves the default.
pub fn tighten_timer_slack() {
    #[cfg(target_os = "linux")]
    {
        use std::os::raw::{c_int, c_ulong};
        extern "C" {
            fn prctl(option: c_int, ...) -> c_int;
        }
        const PR_SET_TIMERSLACK: c_int = 29;
        // SAFETY: PR_SET_TIMERSLACK takes one integer argument, passed as
        // the unsigned long the kernel reads; it changes only the calling
        // thread's timer slack and touches no memory of ours.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1 as c_ulong);
        }
    }
}

/// Host facts every result records.
#[derive(Debug, Clone)]
pub struct Host {
    /// Logical cores available to this process.
    pub nproc: usize,
    /// The source revision, when the checkout carries git metadata.
    pub git_rev: String,
}

impl Host {
    /// Reads the host facts.
    pub fn detect() -> Self {
        Host {
            nproc: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            git_rev: git_rev().unwrap_or_else(|| "unknown".into()),
        }
    }
}

/// Resolves `.git/HEAD` to a commit id without running git.
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(rev.trim().to_owned());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|line| line.ends_with(reference))
        .and_then(|line| line.split_whitespace().next())
        .map(str::to_owned)
}

/// Host CPU time counters `(steal, total)` in clock ticks, from the
/// aggregate line of `/proc/stat`; steal is time the hypervisor ran
/// something else while this host wanted a CPU.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
    // user nice system idle iowait irq softirq steal
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

/// Share of host CPU time stolen between two [`cpu_ticks`] readings, in
/// percent.
pub fn steal_pct(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 * 100.0 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_determined_by_seed_and_stream() {
        let a: Vec<u64> = (0..8).scan(Rng::new(7, 1), |r, _| Some(r.next_u64())).collect();
        let b: Vec<u64> = (0..8).scan(Rng::new(7, 1), |r, _| Some(r.next_u64())).collect();
        let c: Vec<u64> = (0..8).scan(Rng::new(7, 2), |r, _| Some(r.next_u64())).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(200, 1.0);
        let mut rng = Rng::new(1, 0);
        let mut counts = [0usize; 200];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[150]);
        assert!(counts.iter().all(|&c| c < 50_000));
    }

    #[test]
    fn better_half_median_ignores_the_worse_half() {
        // Latency-like: the two contended samples do not move it.
        assert_eq!(better_half_median(vec![10.0, 12.0, 11.0, 90.0, 95.0], false), 11.0);
        // Throughput-like: the better half is the upper one.
        assert_eq!(better_half_median(vec![5.0, 100.0, 98.0, 1.0], true), 99.0);
        assert_eq!(better_half_median(vec![], false), 0.0);
    }

    #[test]
    fn wait_until_times_out_on_a_stuck_future() {
        use std::time::Duration;
        let never = std::future::pending::<()>();
        let t0 = Instant::now();
        assert!(wait_until(never, t0 + Duration::from_millis(20)).is_none());
        assert!(t0.elapsed() >= Duration::from_millis(20));
        assert_eq!(wait_until(std::future::ready(3), t0).unwrap(), 3);
    }
}
