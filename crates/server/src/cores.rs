//! Multi-core CPU model with RSS dispatch.
//!
//! The paper's lock server uses DPDK with Receive Side Scaling: the NIC
//! hashes each lock request to a core's RX queue, so requests for one
//! lock always hit the same core (no cross-core locking) and a server
//! scales with cores until the NIC limit (~18 MRPS at 8 cores in their
//! testbed, i.e. ≈444 ns of CPU per request at saturation).
//!
//! The model keeps one `busy_until` horizon per core: a request starts at
//! `max(arrival, busy_until)` and completes `service_ns` later. State
//! changes apply at arrival (per-lock ordering is preserved because RSS
//! pins a lock to one core and arrivals are FIFO), while *outputs* carry
//! the queueing + service delay.

use std::sync::OnceLock;

use netlock_proto::LockId;

/// The paper's per-message CPU cost: 222 ns ≈ 18 M lock requests/s per
/// 8-core server once each grant's release is accounted for. This is
/// the literature constant every committed figure TSV and chaos digest
/// is pinned to.
pub const PAPER_SERVICE_NS: u64 = 222;

/// Where the per-message service cost comes from.
///
/// The simulation's server model charges a constant per message. By
/// default that constant is the paper's ([`PAPER_SERVICE_NS`]); the
/// `dlock_bench` harness *measures* the sequential lock-table cost on
/// this machine's cores and writes it to `BENCH_dlock.json` as
/// `calibrated_service_ns`, and an opt-in flag feeds that measurement
/// back in so capacity studies reflect local hardware instead of the
/// paper's testbed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ServiceModel {
    /// The paper's constant ([`PAPER_SERVICE_NS`]). The default:
    /// committed artifacts stay byte-identical.
    Paper,
    /// A measured per-message cost in nanoseconds.
    CalibratedNs(u64),
}

impl ServiceModel {
    /// The per-message cost this model charges.
    pub fn service_ns(&self) -> u64 {
        match *self {
            ServiceModel::Paper => PAPER_SERVICE_NS,
            ServiceModel::CalibratedNs(ns) => ns.max(1),
        }
    }

    /// The model selected by the environment (cached after first call):
    /// [`calibrated_ns`] of `NETLOCK_CALIBRATED_NS` and
    /// `NETLOCK_CALIBRATED`, or [`Paper`] where that finds nothing
    /// usable.
    ///
    /// The `--calibrated` flag of the figure binaries sets the
    /// environment before any server is built.
    ///
    /// [`Paper`]: ServiceModel::Paper
    pub fn from_env() -> ServiceModel {
        static CACHE: OnceLock<ServiceModel> = OnceLock::new();
        *CACHE.get_or_init(|| {
            let env = |name| std::env::var(name).ok();
            let direct = env("NETLOCK_CALIBRATED_NS");
            let report = env("NETLOCK_CALIBRATED");
            calibrated_ns(direct.as_deref(), report.as_deref())
                .map_or(ServiceModel::Paper, ServiceModel::CalibratedNs)
        })
    }
}

/// The measured per-message cost two environment values select:
///
/// - `direct` (`NETLOCK_CALIBRATED_NS`), if it is a positive integer;
/// - else the `calibrated_service_ns` of the report `report`
///   (`NETLOCK_CALIBRATED`) names — `1` / `true` name
///   `BENCH_dlock.json` in the current directory, while unset, empty,
///   `0` and `false` select no calibration.
///
/// `Err` says why there is no cost: nothing selected, or the report
/// that could not be used.
pub fn calibrated_ns(direct: Option<&str>, report: Option<&str>) -> Result<u64, String> {
    if let Some(ns) = direct.and_then(|v| v.trim().parse::<u64>().ok()) {
        if ns > 0 {
            return Ok(ns);
        }
    }
    let path = match report.map(str::trim) {
        None | Some("" | "0" | "false") => {
            let value = report.unwrap_or_default();
            return Err(format!("NETLOCK_CALIBRATED={value:?} selects no report"));
        }
        Some("1" | "true") => "BENCH_dlock.json",
        Some(path) => path,
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|text| parse_calibrated_ns(&text))
        .ok_or_else(|| {
            format!("no usable calibrated_service_ns in {path:?} (run dlock_bench to write one)")
        })
}

/// Extract `"calibrated_service_ns": <number>` from a `BENCH_dlock.json`
/// report without a JSON parser (the workspace builds offline, no
/// serde). Returns `None` when the field is missing or malformed.
pub fn parse_calibrated_ns(text: &str) -> Option<u64> {
    let key = "\"calibrated_service_ns\"";
    let rest = &text[text.find(key)? + key.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.'))
        .unwrap_or(rest.len());
    let ns = rest[..end].parse::<f64>().ok()?;
    if ns.is_finite() && ns >= 1.0 {
        Some(ns.round() as u64)
    } else {
        None
    }
}

/// The per-core service model.
#[derive(Clone, Debug)]
pub struct CoreModel {
    busy_until: Vec<u64>,
    service_ns: u64,
    busy_ns: u64,
    processed: u64,
}

impl CoreModel {
    /// `cores` cores, each spending `service_ns` per request.
    pub fn new(cores: usize, service_ns: u64) -> CoreModel {
        assert!(cores > 0, "need at least one core");
        CoreModel {
            busy_until: vec![0; cores],
            service_ns,
            busy_ns: 0,
            processed: 0,
        }
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.busy_until.len()
    }

    /// RSS hash: which core handles `lock`.
    #[inline]
    pub fn core_of(&self, lock: LockId) -> usize {
        // Fibonacci hashing — cheap, well-spread for sequential ids.
        (lock.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) as usize % self.busy_until.len()
    }

    /// Account one request for `lock` arriving at `now_ns`; returns the
    /// completion time (≥ `now_ns + service_ns`).
    pub fn process(&mut self, lock: LockId, now_ns: u64) -> u64 {
        let core = self.core_of(lock);
        let start = self.busy_until[core].max(now_ns);
        let done = start + self.service_ns;
        self.busy_until[core] = done;
        self.busy_ns += self.service_ns;
        self.processed += 1;
        done
    }

    /// Total CPU-busy nanoseconds across cores.
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns
    }

    /// Requests processed.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Utilization over a window of `elapsed_ns` (0..=1 per core basis).
    pub fn utilization(&self, elapsed_ns: u64) -> f64 {
        if elapsed_ns == 0 {
            return 0.0;
        }
        self.busy_ns as f64 / (elapsed_ns as f64 * self.busy_until.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_lock_serializes_on_one_core() {
        let mut m = CoreModel::new(4, 100);
        let l = LockId(7);
        let t1 = m.process(l, 0);
        let t2 = m.process(l, 0);
        let t3 = m.process(l, 0);
        assert_eq!(t1, 100);
        assert_eq!(t2, 200);
        assert_eq!(t3, 300);
    }

    #[test]
    fn different_cores_run_in_parallel() {
        let mut m = CoreModel::new(8, 100);
        // Find two locks on different cores.
        let a = LockId(0);
        let b = (1..100)
            .map(LockId)
            .find(|&l| m.core_of(l) != m.core_of(a))
            .expect("some lock maps elsewhere");
        assert_eq!(m.process(a, 0), 100);
        assert_eq!(m.process(b, 0), 100, "parallel cores don't queue");
    }

    #[test]
    fn idle_gap_resets_start_time() {
        let mut m = CoreModel::new(1, 100);
        assert_eq!(m.process(LockId(1), 0), 100);
        assert_eq!(m.process(LockId(1), 1_000), 1_100);
    }

    #[test]
    fn capacity_matches_paper_scale() {
        // 8 cores at 222 ns/message ≈ 36 M messages/s ≈ 18 M lock
        // requests/s once each grant's release is accounted for.
        // Saturate every core from t = 0 and time the last finish.
        let mut m = CoreModel::new(8, 222);
        let per_core: Vec<LockId> = (0..8)
            .map(|c| (0..).map(LockId).find(|&l| m.core_of(l) == c).unwrap())
            .collect();
        let rounds = 1_000;
        let mut done = 0;
        for _ in 0..rounds {
            for &l in &per_core {
                done = done.max(m.process(l, 0));
            }
        }
        let msgs = (8 * rounds) as f64 * 1e9 / done as f64;
        assert!((35.9e6..36.1e6).contains(&msgs), "msgs = {msgs}");
    }

    #[test]
    fn utilization_accounting() {
        let mut m = CoreModel::new(2, 100);
        m.process(LockId(1), 0);
        m.process(LockId(2), 0);
        assert_eq!(m.busy_ns(), 200);
        assert_eq!(m.processed(), 2);
        assert!((m.utilization(1_000) - 0.1).abs() < 1e-9);
        assert_eq!(m.utilization(0), 0.0);
    }

    #[test]
    fn service_model_costs() {
        assert_eq!(ServiceModel::Paper.service_ns(), PAPER_SERVICE_NS);
        assert_eq!(ServiceModel::CalibratedNs(950).service_ns(), 950);
        // A degenerate calibration can never stall the core model.
        assert_eq!(ServiceModel::CalibratedNs(0).service_ns(), 1);
    }

    #[test]
    fn parse_calibrated_ns_from_report() {
        let report = r#"{
  "schema": "netlock-bench-dlock/1",
  "seq_lock_table_ns_per_op": 81.25,
  "calibrated_service_ns": 81.25,
  "backends": []
}"#;
        assert_eq!(parse_calibrated_ns(report), Some(81));
        assert_eq!(parse_calibrated_ns("{}"), None);
        assert_eq!(parse_calibrated_ns("\"calibrated_service_ns\": x"), None);
        assert_eq!(parse_calibrated_ns("\"calibrated_service_ns\": 0.2"), None);
        assert_eq!(
            parse_calibrated_ns("{\"calibrated_service_ns\":  1500}"),
            Some(1500)
        );
    }

    #[test]
    fn calibrated_without_a_usable_report_is_an_error_naming_the_path() {
        let dir = std::env::temp_dir().join(format!("netlock-calibrated-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let at = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let (missing, fieldless, good) =
            (at("missing.json"), at("fieldless.json"), at("good.json"));
        std::fs::write(&fieldless, "{\"seq_lock_table_ns_per_op\": 14.5}").unwrap();
        std::fs::write(&good, "{\"calibrated_service_ns\": 81.3}").unwrap();
        for bad in [&missing, &fieldless] {
            let err = calibrated_ns(None, Some(bad)).unwrap_err();
            assert!(err.contains(bad.as_str()), "{err}");
            // A malformed direct value does not rescue it either.
            assert!(calibrated_ns(Some("0"), Some(bad)).is_err());
        }
        assert_eq!(calibrated_ns(None, Some(&good)), Ok(81));
        assert_eq!(calibrated_ns(Some("x"), Some(&good)), Ok(81));
        assert_eq!(calibrated_ns(Some(" 40 "), Some(&missing)), Ok(40));
        // Unset, empty, `0` and `false` switch calibration off rather
        // than name a report file.
        for off in [None, Some(""), Some("0"), Some(" false ")] {
            let err = calibrated_ns(None, off).unwrap_err();
            assert!(err.contains("selects no report"), "{off:?}: {err}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rss_spreads_locks() {
        let m = CoreModel::new(8, 100);
        let mut hits = [0u32; 8];
        for i in 0..8_000 {
            hits[m.core_of(LockId(i))] += 1;
        }
        for (c, &h) in hits.iter().enumerate() {
            assert!(
                (700..1300).contains(&h),
                "core {c} got {h} of 8000 — RSS skew"
            );
        }
    }
}
