//! Time-series recorder for throughput-over-time figures.

use crate::time::{SimDuration, SimTime};

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

/// Converts interval event counts into a rate series.
///
/// The harness increments [`IntervalCounter::add`] as events complete and
/// calls [`IntervalCounter::roll`] at each sampling boundary; each roll
/// emits one `(interval_end, events_per_second)` point.
#[derive(Clone, Debug)]
pub struct IntervalCounter {
    interval: SimDuration,
    window_start: SimTime,
    count: u64,
    series: TimeSeries,
}

impl IntervalCounter {
    /// A counter that reports rates over windows of length `interval`.
    pub fn new(start: SimTime, interval: SimDuration) -> IntervalCounter {
        assert!(!interval.is_zero(), "sampling interval must be non-zero");
        IntervalCounter {
            interval,
            window_start: start,
            count: 0,
            series: TimeSeries::new(),
        }
    }

    /// Record `n` events in the current window.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.count += n;
    }

    /// Close every window that ends at or before `now`, appending one rate
    /// point per window (empty windows yield 0-rate points).
    pub fn roll(&mut self, now: SimTime) {
        while self.window_start + self.interval <= now {
            let end = self.window_start + self.interval;
            let rate = self.count as f64 / self.interval.as_secs_f64();
            self.series.push(end, rate);
            self.count = 0;
            self.window_start = end;
        }
    }

    /// The rate series accumulated so far.
    pub fn series(&self) -> &TimeSeries {
        &self.series
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

    #[test]
    fn interval_counter_emits_rates() {
        let mut c = IntervalCounter::new(SimTime::ZERO, SimDuration::from_secs(1));
        c.add(10);
        c.roll(SimTime(SimDuration::from_secs(1).as_nanos()));
        assert_eq!(c.series().len(), 1);
        assert_eq!(c.series().points()[0].1, 10.0);
    }

    #[test]
    fn interval_counter_fills_empty_windows() {
        let mut c = IntervalCounter::new(SimTime::ZERO, SimDuration::from_millis(100));
        c.add(5);
        // Jump three windows ahead: first has the 5 events, next two are 0.
        c.roll(SimTime(SimDuration::from_millis(300).as_nanos()));
        let pts = c.series().points();
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0].1, 50.0);
        assert_eq!(pts[1].1, 0.0);
        assert_eq!(pts[2].1, 0.0);
    }

    #[test]
    fn roll_before_boundary_is_noop() {
        let mut c = IntervalCounter::new(SimTime::ZERO, SimDuration::from_secs(1));
        c.add(3);
        c.roll(SimTime(10));
        assert!(c.series().is_empty());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_interval_rejected() {
        let _ = IntervalCounter::new(SimTime::ZERO, SimDuration::ZERO);
    }
}
