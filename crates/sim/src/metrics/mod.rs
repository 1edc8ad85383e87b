//! Measurement utilities: latency histograms, time series.

mod histogram;
mod series;

pub use histogram::Histogram;
pub use series::TimeSeries;

/// A summary of one latency distribution, in nanoseconds, as the paper
/// reports it (average / median / 99% / 99.9%).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: u64,
    /// Mean latency (ns).
    pub avg_ns: f64,
    /// Median latency (ns).
    pub p50_ns: u64,
    /// 99th percentile latency (ns).
    pub p99_ns: u64,
    /// 99.9th percentile latency (ns).
    pub p999_ns: u64,
    /// Maximum observed latency (ns).
    pub max_ns: u64,
}

impl LatencySummary {
    /// Summarize a histogram.
    pub fn from_histogram(h: &Histogram) -> LatencySummary {
        LatencySummary {
            count: h.count(),
            avg_ns: h.mean(),
            p50_ns: h.quantile(0.5),
            p99_ns: h.quantile(0.99),
            p999_ns: h.quantile(0.999),
            max_ns: h.max(),
        }
    }

    /// Mean in microseconds (convenience for reporting).
    pub fn avg_us(&self) -> f64 {
        self.avg_ns / 1e3
    }

    /// Median in microseconds.
    pub fn p50_us(&self) -> f64 {
        self.p50_ns as f64 / 1e3
    }

    /// 99th percentile in microseconds.
    pub fn p99_us(&self) -> f64 {
        self.p99_ns as f64 / 1e3
    }

    /// 99.9th percentile in microseconds.
    pub fn p999_us(&self) -> f64 {
        self.p999_ns as f64 / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_from_histogram() {
        let mut h = Histogram::new();
        for v in [1_000u64, 2_000, 3_000, 100_000] {
            h.record(v);
        }
        let s = LatencySummary::from_histogram(&h);
        assert_eq!(s.count, 4);
        assert!((s.avg_ns - 26_500.0).abs() < 1.0);
        assert!(s.p99_ns >= s.p50_ns);
        assert!(s.p999_ns >= s.p99_ns);
        assert!(s.max_ns >= s.p999_ns);
        assert!((s.avg_us() - 26.5).abs() < 1e-9);
    }

    #[test]
    fn empty_summary_is_zero() {
        let s = LatencySummary::from_histogram(&Histogram::new());
        assert_eq!(s.count, 0);
        assert_eq!(s.p99_ns, 0);
    }
}
