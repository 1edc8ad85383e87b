//! Time-series recorder for throughput-over-time figures.

use crate::time::SimTime;

/// A sequence of `(time, value)` samples, e.g. per-interval throughput.
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> TimeSeries {
        TimeSeries { points: Vec::new() }
    }

    /// Append a sample. Times should be non-decreasing; the recorder does
    /// not reorder.
    pub fn push(&mut self, t: SimTime, v: f64) {
        self.points.push((t, v));
    }

    /// All recorded samples in insertion order.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Mean of the sample values (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|(_, v)| v).sum::<f64>() / self.points.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_basics() {
        let mut s = TimeSeries::new();
        assert!(s.is_empty());
        s.push(SimTime(1), 2.0);
        s.push(SimTime(2), 4.0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.points()[1], (SimTime(2), 4.0));
    }
}
