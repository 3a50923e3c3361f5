//! A log-linear latency histogram over per-iteration samples.
//!
//! Values (nanoseconds, or any non-negative integer unit) land in
//! buckets that are linear within each power of two: `SUB` sub-buckets
//! per octave, so a bucket's width is at most 1/`SUB` of its lower edge.
//! Percentiles interpolate linearly inside the bucket that holds the
//! requested rank, and are clamped to the exact minimum and maximum.

/// Sub-buckets per power of two (relative bucket width <= 1/256).
const SUB_BITS: u32 = 8;
const SUB: u64 = 1 << SUB_BITS;

/// One latency distribution.
#[derive(Debug, Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist::new()
    }
}

/// Bucket index of `v`: values below `SUB` map one-to-one; above, the
/// octave picks a block of `SUB` buckets and the next `SUB_BITS` bits
/// below the leading one pick the bucket inside it.
fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros(); // >= SUB_BITS
    let shift = octave - SUB_BITS;
    let sub = (v >> shift) - SUB; // 0..SUB
    (SUB + u64::from(shift) * SUB + sub) as usize
}

/// The half-open value range `[lo, hi)` bucket `i` covers.
fn bucket_range(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < SUB {
        return (i, i + 1);
    }
    let shift = (i - SUB) / SUB;
    let sub = (i - SUB) % SUB;
    let lo = (SUB + sub) << shift;
    (lo, lo + (1 << shift))
}

impl Hist {
    /// An empty histogram.
    pub fn new() -> Self {
        Hist { counts: Vec::new(), n: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let b = bucket_of(v);
        if b >= self.counts.len() {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += 1;
        self.n += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Records a duration as nanoseconds.
    pub fn record_dur(&mut self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Hist) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum as f64
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        if self.n == 0 {
            0
        } else {
            self.max
        }
    }

    /// The `q`-quantile (`0 < q <= 1`), interpolated inside its bucket;
    /// 0 when empty. The rank is `ceil(q * n)`, the nearest-rank rule.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if below + c >= rank {
                let (lo, hi) = bucket_range(i);
                // Position of the rank inside this bucket, centred on
                // each sample's slot.
                let frac = ((rank - below) as f64 - 0.5) / c as f64;
                let v = lo as f64 + frac * (hi - lo) as f64;
                return v.clamp(self.min as f64, self.max as f64);
            }
            below += c;
        }
        self.max as f64
    }

    /// The summary every workload records: n, p50, p90, p99, p99.9, max,
    /// scaled by `scale` (e.g. 1e-3 turns nanoseconds into microseconds).
    pub fn summary(&self, scale: f64) -> Summary {
        Summary {
            n: self.n,
            p50: self.quantile(0.50) * scale,
            p90: self.quantile(0.90) * scale,
            p99: self.quantile(0.99) * scale,
            p999: self.quantile(0.999) * scale,
            max: self.max() as f64 * scale,
        }
    }
}

/// A histogram's headline numbers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: u64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// JSON object text.
    pub fn json(&self) -> String {
        format!(
            "{{\"n\": {}, \"p50\": {:.4}, \"p90\": {:.4}, \"p99\": {:.4}, \"p99.9\": {:.4}, \"max\": {:.4}}}",
            self.n, self.p50, self.p90, self.p99, self.p999, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_value_line() {
        let mut prev_hi = 0;
        for i in 0..(SUB as usize * 20) {
            let (lo, hi) = bucket_range(i);
            assert_eq!(lo, prev_hi, "bucket {i} must start where {} ended", i.saturating_sub(1));
            assert!(hi > lo);
            assert_eq!(bucket_of(lo), i);
            assert_eq!(bucket_of(hi - 1), i);
            prev_hi = hi;
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Hist::new();
        for v in 1..=100 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        // Nearest rank: p50 of 1..=100 is the 50th value; single-value
        // buckets interpolate to their own centre.
        assert!((h.quantile(0.5) - 50.5).abs() < 1e-9, "{}", h.quantile(0.5));
        assert!((h.quantile(0.9) - 90.5).abs() < 1e-9);
        assert_eq!(h.quantile(1.0), 100.0);
        assert_eq!(h.sum(), 5050.0);
    }

    #[test]
    fn large_values_stay_within_bucket_precision() {
        let mut h = Hist::new();
        // 1..=10000 microseconds in nanoseconds.
        for v in 1..=10_000u64 {
            h.record(v * 1000);
        }
        for (q, want) in [(0.5, 5_000_000.0), (0.9, 9_000_000.0), (0.99, 9_900_000.0)] {
            let got = h.quantile(q);
            let err = (got - want).abs() / want;
            assert!(err < 1.0 / SUB as f64, "q={q}: got {got}, want {want}");
        }
        assert_eq!(h.max(), 10_000_000);
        // The lowest rank reads inside the minimum's 2 ns-wide bucket.
        assert!((h.quantile(0.0001) - 1000.0).abs() <= 2.0);
        let mut single = Hist::new();
        single.record(123_456);
        assert_eq!(single.quantile(0.5), 123_456.0, "clamped to the exact extremes");
    }

    #[test]
    fn merge_equals_recording_everything_once() {
        let mut a = Hist::new();
        let mut b = Hist::new();
        let mut all = Hist::new();
        for v in 0..5000u64 {
            let x = v * 37 % 100_003;
            if v % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
            all.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        for q in [0.5, 0.9, 0.99, 0.999] {
            assert_eq!(a.quantile(q), all.quantile(q));
        }
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = Hist::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.summary(1.0).n, 0);
    }
}
