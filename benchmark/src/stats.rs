//! Small statistics helpers: medians, quantiles of a bucketed
//! distribution, the `VmHWM` parser and the regression-bound rule.

/// Median of `values` (sorted in place); 0 for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Median with the extremes and the repetition count, as host metrics
/// are reported.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub reps: usize,
}

/// Summarise repetitions of one host metric.
pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    Summary {
        median: median(&mut v),
        min: v.first().copied().unwrap_or(0.0),
        max: v.last().copied().unwrap_or(0.0),
        reps: v.len(),
    }
}

/// Quantile `q` of a bucketed distribution given as `(bucket_low,
/// bucket_high, cumulative_count)` per non-empty bucket, interpolating
/// linearly inside the bucket that holds the target rank and clamped
/// to the observed `[min, max]`.
pub fn quantile(cum: &[(u64, u64, u64)], min: u64, max: u64, q: f64) -> f64 {
    let Some(&(_, _, total)) = cum.last() else {
        return 0.0;
    };
    let rank = (q.clamp(0.0, 1.0) * total as f64).max(1.0);
    let mut below = 0u64;
    for &(low, high, upto) in cum {
        if upto as f64 >= rank {
            let inside = (rank - below as f64) / (upto - below) as f64;
            let v = low as f64 + inside * (high - low) as f64;
            return v.clamp(min as f64, max as f64);
        }
        below = upto;
    }
    max as f64
}

/// `VmHWM` (peak resident set) in kB from the text of
/// `/proc/self/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let value: u64 = parts.next()?.parse().ok()?;
    (parts.next()? == "kB").then_some(value)
}

/// This process's peak resident set in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// By what share of `base` the value `new` is worse (negative when it
/// is better). The regression rule is `worsening(..) <= bound`.
pub fn worsening(better: Better, base: f64, new: f64) -> f64 {
    let delta = match better {
        Better::Higher => base - new,
        Better::Lower => new - base,
    };
    if base == 0.0 {
        if delta > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        delta / base.abs()
    }
}

/// Interquartile range over the median, as the driver computes the
/// run-to-run spread of a metric.
pub fn iqr_share(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    // Python's `statistics.quantiles(v, n=4)` (exclusive method).
    let at = |p: f64| {
        let pos = p * (n + 1) as f64;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = (pos - j as f64).clamp(0.0, 1.0);
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    let med = median(&mut v.clone());
    if med == 0.0 {
        return 0.0;
    }
    (at(0.75) - at(0.25)) / med.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_min_max() {
        assert_eq!(median(&mut []), 0.0);
        assert_eq!(median(&mut [3.0]), 3.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        let s = summarize(&[2.70, 2.56, 3.43]);
        assert_eq!(
            s,
            Summary {
                median: 2.70,
                min: 2.56,
                max: 3.43,
                reps: 3
            }
        );
    }

    #[test]
    fn vm_hwm_is_parsed_from_proc_status() {
        let status = "Name:\tbench\nVmPeak:\t  300000 kB\nVmHWM:\t  254976 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(254_976));
        assert_eq!(parse_vm_hwm_kb("VmRSS: 5 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM: lots kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM: 12 MB\n"), None);
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb().unwrap() > 0.1);
        }
    }

    fn within_bound(better: Better, base: f64, new: f64, bound: f64) -> bool {
        worsening(better, base, new) <= bound
    }

    #[test]
    fn bound_rule() {
        // Host throughput, 10 % bound: -9 % passes, -11 % fails.
        assert!(within_bound(Better::Higher, 1_000_000.0, 910_000.0, 0.10));
        assert!(!within_bound(Better::Higher, 1_000_000.0, 890_000.0, 0.10));
        // An improvement always passes.
        assert!(within_bound(Better::Higher, 100.0, 150.0, 0.01));
        assert!(within_bound(Better::Lower, 100.0, 50.0, 0.01));
        // Latency, 10 % bound: one histogram bucket up (1/64) passes,
        // seven buckets up fails.
        let p50 = 34_816.0;
        assert!(within_bound(
            Better::Lower,
            p50,
            p50 * (1.0 + 1.0 / 64.0),
            0.10
        ));
        assert!(!within_bound(
            Better::Lower,
            p50,
            p50 * (1.0 + 7.0 / 64.0),
            0.10
        ));
        // A zero base tolerates no worsening.
        assert!(within_bound(Better::Lower, 0.0, 0.0, 0.1));
        assert!(!within_bound(Better::Lower, 0.0, 0.001, 0.1));
    }

    #[test]
    fn quantile_interpolates_inside_the_bucket() {
        // 100 samples in [1000, 1008), 100 in [2048, 2080).
        let cum = [(1000, 1008, 100), (2048, 2080, 200)];
        assert_eq!(quantile(&cum, 1000, 2079, 0.25), 1004.0);
        assert_eq!(quantile(&cum, 1000, 2079, 0.5), 1008.0);
        assert_eq!(quantile(&cum, 1000, 2079, 0.75), 2064.0);
        assert_eq!(quantile(&cum, 1000, 2079, 1.0), 2079.0);
        // A constant distribution reads its constant.
        assert_eq!(
            quantile(&[(9_472, 9_600, 50)], 9_500, 9_500, 0.999),
            9_500.0
        );
        assert_eq!(quantile(&[], 0, 0, 0.5), 0.0);
    }

    #[test]
    fn iqr_share_matches_python_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[5.0; 10]), 0.0);
    }
}
