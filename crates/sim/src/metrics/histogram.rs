//! Log-bucketed latency histogram (HDR-histogram style).
//!
//! Values are recorded in nanoseconds. Buckets are arranged as log2 tiers
//! with `SUB_BITS` linear sub-buckets per tier, giving a bounded relative
//! error (< 1/2^SUB_BITS) at every magnitude — accurate enough for the
//! microsecond-to-millisecond latencies the experiments report, with O(1)
//! record and O(buckets) quantile queries.

/// Linear sub-buckets per power-of-two tier (2^6 = 64 → <1.6% error).
const SUB_BITS: u32 = 6;
const SUB_COUNT: usize = 1 << SUB_BITS;
/// Tiers cover values up to 2^40 ns ≈ 18 minutes, far beyond any sim run.
const TIERS: usize = 41;

/// A fixed-size log-bucketed histogram of `u64` values.
#[derive(Clone, PartialEq)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0; TIERS * SUB_COUNT],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    #[inline]
    fn bucket_of(value: u64) -> usize {
        // Tier 0 holds values < SUB_COUNT exactly (one value per sub-bucket).
        let v = value;
        let msb = 63u32.saturating_sub(v.leading_zeros()); // floor(log2(v)), 0 for v=0
        if msb < SUB_BITS {
            return v as usize;
        }
        let tier = (msb - SUB_BITS + 1) as usize;
        let shifted = (v >> (msb - SUB_BITS)) as usize - SUB_COUNT; // [0, SUB_COUNT)
        let tier = tier.min(TIERS - 1);
        tier * SUB_COUNT + shifted.min(SUB_COUNT - 1)
    }

    #[inline]
    fn bucket_low(idx: usize) -> u64 {
        let tier = idx / SUB_COUNT;
        let sub = (idx % SUB_COUNT) as u64;
        if tier == 0 {
            sub
        } else {
            (SUB_COUNT as u64 + sub) << (tier - 1)
        }
    }

    /// Record one value.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_of(value)] += 1;
        self.total += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Mean of recorded values, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Smallest recorded value, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Value at quantile `q` in `[0, 1]` (lower bucket bound; 0 if empty).
    ///
    /// `q = 0.5` is the median, `q = 0.99` the 99th percentile.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample (1-based), at least 1.
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            if seen >= rank {
                // Clamp to observed extremes so tiny histograms read sanely.
                return Self::bucket_low(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.total += other.total;
        self.sum += other.sum;
        if other.total > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Reset to empty.
    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }

    /// Cumulative-distribution points `(value_ns, cum_fraction)` for every
    /// non-empty bucket, suitable for plotting a latency CDF.
    pub fn cdf_points(&self) -> Vec<(u64, f64)> {
        let mut pts = Vec::new();
        if self.total == 0 {
            return pts;
        }
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            pts.push((Self::bucket_low(idx), seen as f64 / self.total as f64));
        }
        pts
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Histogram{{n={}, mean={:.1}, p50={}, p99={}, max={}}}",
            self.total,
            self.mean(),
            self.quantile(0.5),
            self.quantile(0.99),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reads_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert!(h.is_empty());
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert!(h.cdf_points().is_empty());
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..64u64 {
            h.record(v);
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 63);
        assert_eq!(h.quantile(1.0), 63);
        // Sub-SUB_COUNT values land in exact buckets.
        assert_eq!(h.quantile(0.5), 31);
    }

    #[test]
    fn quantiles_have_bounded_relative_error() {
        let mut h = Histogram::new();
        // Deterministic spread over several magnitudes.
        let mut vals: Vec<u64> = (0..10_000u64).map(|i| 100 + i * 137).collect();
        for &v in &vals {
            h.record(v);
        }
        vals.sort_unstable();
        for &q in &[0.1, 0.5, 0.9, 0.99, 0.999] {
            let exact = vals[((q * vals.len() as f64).ceil() as usize - 1).min(vals.len() - 1)];
            let approx = h.quantile(q);
            let rel = (approx as f64 - exact as f64).abs() / exact as f64;
            assert!(rel < 0.04, "q={q}: exact={exact} approx={approx} rel={rel}");
        }
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::new();
        h.record(10);
        h.record(20);
        h.record(30);
        assert_eq!(h.mean(), 20.0);
    }

    #[test]
    fn merge_combines() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(100);
        b.record(10_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 100);
        assert_eq!(a.max(), 10_000);
    }

    #[test]
    fn clear_resets() {
        let mut h = Histogram::new();
        h.record(5);
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn cdf_points_monotone_and_complete() {
        let mut h = Histogram::new();
        for v in [5u64, 50, 500, 5_000, 50_000] {
            h.record(v);
        }
        let pts = h.cdf_points();
        assert!(!pts.is_empty());
        for w in pts.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn huge_values_do_not_panic() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.count(), 2);
        assert!(h.quantile(1.0) > 0);
    }
}
