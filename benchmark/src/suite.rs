//! The suite: every workload, three timed runs and one traced run,
//! each run its own process so `peak_rss_mb` and `setup_s` are per
//! run; the determinism self-check across them; the report; and the
//! comparison of two reports.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use crate::json::Json;
use crate::metrics::{self, Clock, MetricDef, END_TO_END, PER_LAYER};
use crate::stats::{iqr_share, summarize, worsening, Better};
use crate::workloads::{WorkloadSpec, WORKLOADS};
use crate::{check_schema, package_dir, DEFAULT_SECONDS};

const TIMED_REPS: usize = 3;
/// `--smoke` divides the simulated windows by this.
const SMOKE_DIVISOR: f64 = 20.0;
/// Absolute slack when comparing two values that are both near zero.
const ABS_EPSILON: f64 = 1e-9;

/// `benchmark/out/`, created on demand: where child reports and the
/// suite report go.
fn out_dir() -> Result<PathBuf, ExitCode> {
    let dir = package_dir().join("out");
    std::fs::create_dir_all(&dir).map_err(|e| {
        eprintln!("error: cannot create {}: {e}", dir.display());
        ExitCode::FAILURE
    })?;
    Ok(dir)
}

/// Run one child process of this program and read back its report.
fn child_run(
    spec: &WorkloadSpec,
    seed: u64,
    seconds: f64,
    trace: bool,
    report: &Path,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", spec.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--report")
        .arg(report)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child run: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{} trace {}: child exited with {}",
            spec.name,
            u8::from(trace),
            out.status
        ));
    }
    let text = std::fs::read_to_string(report)
        .map_err(|e| format!("cannot read {}: {e}", report.display()))?;
    let _ = std::fs::remove_file(report);
    Json::parse(&text).map_err(|e| format!("{}: {e}", report.display()))
}

fn metric_of(run: &Json, name: &str) -> Option<f64> {
    run.get("metrics")?.get(name)?.as_f64()
}

/// Aggregate one workload's runs; determinism mismatches and failed
/// checks are appended to `problems` with the differing field named.
fn aggregate(
    spec: &WorkloadSpec,
    timed: &[Json],
    traced: &Json,
    problems: &mut Vec<String>,
) -> Json {
    let w = spec.name;
    for (i, run) in timed.iter().chain([traced]).enumerate() {
        if run.get("correct") != Some(&Json::Bool(true)) {
            let failed: Vec<&str> = run
                .get("checks")
                .and_then(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .filter(|c| c.get("ok") != Some(&Json::Bool(true)))
                .filter_map(|c| c.get("name").and_then(Json::as_str))
                .collect();
            problems.push(format!("{w}: run {i} is not correct: {failed:?}"));
        }
    }
    // The timed runs must agree exactly on everything simulated.
    for run in &timed[1..] {
        for field in ["sim_digest", "sim_counts", "attempted", "failed"] {
            if run.get(field) != timed[0].get(field) {
                problems.push(format!("{w}: timed runs differ in {field}"));
            }
        }
    }
    let mut e2e = Vec::new();
    for m in &END_TO_END {
        let values: Vec<f64> = timed.iter().filter_map(|r| metric_of(r, m.name)).collect();
        if values.len() != timed.len() || values.iter().any(|v| !v.is_finite()) {
            problems.push(format!("{w}: {} missing or not finite", m.name));
            continue;
        }
        let s = summarize(&values);
        if m.clock == Clock::Sim && s.min != s.max {
            problems.push(format!(
                "{w}: simulated metric {} differs between timed runs: {values:?}",
                m.name
            ));
        }
        e2e.push((
            m.name,
            Json::obj([
                ("unit", Json::Str(m.unit.into())),
                ("clock", Json::Str(clock_name(m.clock).into())),
                ("what", Json::Str(m.what.into())),
                ("median", Json::Num(s.median)),
                ("min", Json::Num(s.min)),
                ("max", Json::Num(s.max)),
                ("reps", Json::Num(s.reps as f64)),
            ]),
        ));
    }
    let mut layers = Vec::new();
    for m in &PER_LAYER {
        match metric_of(traced, m.name) {
            Some(v) if v.is_finite() => layers.push((
                m.name,
                Json::obj([
                    ("unit", Json::Str(m.unit.into())),
                    ("clock", Json::Str(clock_name(m.clock).into())),
                    ("what", Json::Str(m.what.into())),
                    ("value", Json::Num(v)),
                ]),
            )),
            _ => problems.push(format!("{w}: {} missing or not finite", m.name)),
        }
    }
    let pick = |run: &Json, key: &str| run.get(key).cloned().unwrap_or(Json::Null);
    Json::obj([
        ("why", Json::Str(spec.why.into())),
        ("paper_ref", Json::Str(spec.paper_ref.into())),
        ("attempted", pick(&timed[0], "attempted")),
        ("failed", pick(&timed[0], "failed")),
        ("sim_digest", pick(&timed[0], "sim_digest")),
        ("sim_counts", pick(&timed[0], "sim_counts")),
        (
            "window_wall_s",
            Json::Arr(timed.iter().map(|r| pick(r, "window_wall_s")).collect()),
        ),
        ("end_to_end", Json::obj(e2e)),
        ("traced_sim_digest", pick(traced, "sim_digest")),
        ("traced_sim_counts", pick(traced, "sim_counts")),
        ("per_layer", Json::obj(layers)),
    ])
}

fn clock_name(c: Clock) -> &'static str {
    match c {
        Clock::Host => "host",
        Clock::Sim => "sim",
    }
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn print_report(report: &Json) {
    let Some(workloads) = report.get("workloads").and_then(Json::as_obj) else {
        return;
    };
    for (name, w) in workloads {
        println!(
            "\n== {name} — {}",
            w.get("paper_ref").and_then(Json::as_str).unwrap_or("")
        );
        let num = |v: &Json, k: &str| v.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
        let text = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap_or("").to_string();
        for (metric, v) in w
            .get("end_to_end")
            .and_then(Json::as_obj)
            .unwrap_or_default()
        {
            println!(
                "{metric:<40} {:>16.6} {:<9} {:<4} min {:.6} max {:.6} reps {}",
                num(v, "median"),
                text(v, "unit"),
                text(v, "clock"),
                num(v, "min"),
                num(v, "max"),
                num(v, "reps"),
            );
        }
        for (metric, v) in w
            .get("per_layer")
            .and_then(Json::as_obj)
            .unwrap_or_default()
        {
            println!(
                "{metric:<40} {:>16.6} {:<9} {:<4} reps 1",
                num(v, "value"),
                text(v, "unit"),
                text(v, "clock"),
            );
        }
    }
}

/// Run the suite. Exit code 0 only when every run was correct, the
/// runs agree on everything simulated, and (with `--smoke`) the
/// declared schema holds.
pub fn run_suite(
    only: Option<&str>,
    seed: u64,
    seconds: Option<f64>,
    smoke: bool,
    out: Option<&Path>,
) -> ExitCode {
    let seconds = match (seconds, smoke) {
        (Some(s), _) => s,
        (None, true) => DEFAULT_SECONDS / SMOKE_DIVISOR,
        (None, false) => DEFAULT_SECONDS,
    };
    let reps = if smoke { 1 } else { TIMED_REPS };
    let out_dir = match out_dir() {
        Ok(dir) => dir,
        Err(code) => return code,
    };
    let mut problems = Vec::new();
    let mut workloads = Vec::new();
    for spec in WORKLOADS
        .iter()
        .filter(|w| only.is_none_or(|o| o == w.name))
    {
        let mut runs = Vec::new();
        for rep in 0..=reps {
            let trace = rep == reps;
            eprintln!(
                "# {} seed {seed} seconds {seconds}: {}",
                spec.name,
                if trace {
                    "traced run".to_string()
                } else {
                    format!("timed run {}/{reps}", rep + 1)
                }
            );
            let tmp = out_dir.join(format!("{}.run{rep}.json", spec.name));
            match child_run(spec, seed, seconds, trace, &tmp) {
                Ok(run) => runs.push(run),
                Err(e) => problems.push(e),
            }
        }
        if runs.len() == reps + 1 {
            let traced = runs.pop().expect("reps + 1 runs");
            workloads.push((spec.name, aggregate(spec, &runs, &traced, &mut problems)));
        }
    }
    if smoke {
        let path = package_dir().join("../BENCHMARK.json");
        match std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|t| Json::parse(&t))
        {
            Ok(bench) => problems.extend(check_schema(&bench)),
            Err(e) => problems.push(format!("{}: {e}", path.display())),
        }
    }
    let report = Json::obj([
        ("schema", Json::Str("netlock-benchmark/1".into())),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("smoke", Json::Bool(smoke)),
        (
            "env",
            Json::obj([
                (
                    "nproc",
                    Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
                ),
                ("rustc", Json::Str(rustc_version())),
                ("os", Json::Str(std::env::consts::OS.into())),
                ("arch", Json::Str(std::env::consts::ARCH.into())),
            ]),
        ),
        (
            "note",
            Json::Str(
                "host metrics carry this box's noise; sim metrics repeat exactly for (workload, seed, seconds); the model is validated by shape only, no error figure against the paper is claimed"
                    .into(),
            ),
        ),
        ("workloads", Json::obj(workloads)),
        (
            "problems",
            Json::Arr(problems.iter().map(|p| Json::Str(p.clone())).collect()),
        ),
    ]);
    print_report(&report);
    let default_out = out_dir.join("report.json");
    let path = out.unwrap_or(&default_out);
    if let Err(e) = std::fs::write(path, report.render_pretty()) {
        eprintln!("error: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    eprintln!("# wrote {}", path.display());
    for p in &problems {
        eprintln!("PROBLEM: {p}");
    }
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--spread N`: what the driver does before it accepts the benchmark.
/// `N` timed runs per workload, each with another seed; for every
/// end-to-end metric the interquartile range over the median, next to
/// the metric's bound.
pub fn run_spread(only: Option<&str>, first_seed: u64, seconds: f64, runs: usize) -> ExitCode {
    let out_dir = match out_dir() {
        Ok(dir) => dir,
        Err(code) => return code,
    };
    let mut wide = 0;
    println!(
        "# {runs} runs per workload, seeds {first_seed}..{}, --seconds {seconds}",
        first_seed + runs as u64 - 1
    );
    println!(
        "{:<18} {:<20} {:>16} {:>9} {:>7}  {:>16} {:>16}",
        "workload", "metric", "median", "iqr/med", "bound", "min", "max"
    );
    for spec in WORKLOADS
        .iter()
        .filter(|w| only.is_none_or(|o| o == w.name))
    {
        let mut runs_json = Vec::new();
        for seed in first_seed..first_seed + runs as u64 {
            let tmp = out_dir.join(format!("{}.seed{seed}.json", spec.name));
            match child_run(spec, seed, seconds, false, &tmp) {
                Ok(run) if run.get("correct") == Some(&Json::Bool(true)) => runs_json.push(run),
                Ok(_) => {
                    eprintln!("error: {} seed {seed} is not correct", spec.name);
                    return ExitCode::FAILURE;
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        for m in &END_TO_END {
            let values: Vec<f64> = runs_json
                .iter()
                .filter_map(|r| metric_of(r, m.name))
                .collect();
            let s = summarize(&values);
            let spread = iqr_share(&values);
            let bound = m.bound.unwrap_or(f64::INFINITY);
            // `setup_s` is exempt from the driver's spread rule.
            if spread > bound && m.name != "setup_s" {
                wide += 1;
            }
            println!(
                "{:<18} {:<20} {:>16.6} {:>8.3}% {:>6.1}%  {:>16.6} {:>16.6}",
                spec.name,
                m.name,
                s.median,
                spread * 100.0,
                bound * 100.0,
                s.min,
                s.max
            );
        }
    }
    println!("{wide} spreads wider than their bound");
    if wide == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One row of a comparison: how far two reports are apart on a metric
/// and whether that is inside its bound.
#[derive(Debug, PartialEq)]
pub struct Agreement {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// Larger of the two directions' worsening, as a share.
    pub apart: f64,
    pub allowed: f64,
    pub ok: bool,
}

/// Compare one metric of two reports. Simulated metrics and counts
/// (`allowed == 0`) must be identical; host metrics may be apart by
/// the metric's bound in either direction.
fn agree(workload: &str, m: &MetricDef, a: f64, b: f64, same_inputs: bool) -> Agreement {
    let apart = if (a - b).abs() <= ABS_EPSILON {
        0.0
    } else {
        worsening(Better::Lower, a, b)
            .abs()
            .max(worsening(Better::Lower, b, a).abs())
    };
    let allowed = match (m.clock, same_inputs) {
        (Clock::Sim, true) => 0.0,
        _ => m.bound.unwrap_or(f64::INFINITY),
    };
    Agreement {
        workload: workload.into(),
        metric: m.name.into(),
        a,
        b,
        apart,
        allowed,
        ok: apart <= allowed,
    }
}

/// Compare two suite reports. With the same seed and seconds every
/// simulated value must be identical; across seeds, simulated
/// end-to-end metrics must stay within their bounds and per-layer
/// metrics are listed without a verdict.
pub fn compare(a: &Json, b: &Json) -> (Vec<Agreement>, Vec<String>) {
    let mut rows = Vec::new();
    let mut problems = Vec::new();
    let same_inputs = a.get("seed") == b.get("seed") && a.get("seconds") == b.get("seconds");
    let empty: &[(String, Json)] = &[];
    let wa = a.get("workloads").and_then(Json::as_obj).unwrap_or(empty);
    for (name, va) in wa {
        let Some(vb) = b.get("workloads").and_then(|w| w.get(name)) else {
            problems.push(format!("{name}: missing from the second report"));
            continue;
        };
        if same_inputs {
            for field in [
                "sim_digest",
                "sim_counts",
                "traced_sim_digest",
                "traced_sim_counts",
            ] {
                if va.get(field) != vb.get(field) {
                    problems.push(format!("{name}: {field} differs"));
                }
            }
        }
        for (section, key) in [("end_to_end", "median"), ("per_layer", "value")] {
            let metrics_a = va.get(section).and_then(Json::as_obj).unwrap_or(empty);
            for (metric, ma) in metrics_a {
                let (Some(def), Some(x), Some(y)) = (
                    metrics::find(metric),
                    ma.get(key).and_then(Json::as_f64),
                    vb.get(section)
                        .and_then(|s| s.get(metric))
                        .and_then(|m| m.get(key))
                        .and_then(Json::as_f64),
                ) else {
                    problems.push(format!("{name}: {metric} missing from one report"));
                    continue;
                };
                rows.push(agree(name, def, x, y, same_inputs));
            }
        }
    }
    (rows, problems)
}

/// `--compare A B`: print the agreement table; exit non-zero when a
/// bounded metric is outside its bound or a simulated value differs.
pub fn compare_files(a: &Path, b: &Path) -> ExitCode {
    let load = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| e.to_string())
            .and_then(|t| Json::parse(&t))
            .map_err(|e| format!("{}: {e}", p.display()))
    };
    let (ja, jb) = match (load(a), load(b)) {
        (Ok(ja), Ok(jb)) => (ja, jb),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let (rows, problems) = compare(&ja, &jb);
    let describe = |j: &Json| {
        format!(
            "seed {} seconds {} nproc {} {}",
            j.get("seed").and_then(Json::as_f64).unwrap_or(f64::NAN),
            j.get("seconds").and_then(Json::as_f64).unwrap_or(f64::NAN),
            j.get("env")
                .and_then(|e| e.get("nproc"))
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN),
            j.get("env")
                .and_then(|e| e.get("rustc"))
                .and_then(Json::as_str)
                .unwrap_or("?"),
        )
    };
    println!("A: {} ({})", a.display(), describe(&ja));
    println!("B: {} ({})", b.display(), describe(&jb));
    println!(
        "{:<18} {:<36} {:>16} {:>16} {:>9} {:>9}  verdict",
        "workload", "metric", "A", "B", "apart", "allowed"
    );
    let mut bad = problems.len();
    for r in &rows {
        let verdict = match (r.ok, r.allowed.is_finite()) {
            (true, true) if r.allowed == 0.0 => "identical",
            (true, true) => "within bound",
            (true, false) => "reported",
            (false, _) => {
                bad += 1;
                "DISAGREE"
            }
        };
        println!(
            "{:<18} {:<36} {:>16.6} {:>16.6} {:>8.3}% {:>9}  {verdict}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.apart * 100.0,
            if r.allowed.is_finite() {
                format!("{:.1}%", r.allowed * 100.0)
            } else {
                "-".into()
            },
        );
    }
    for p in &problems {
        println!("PROBLEM: {p}");
    }
    println!("{} metrics compared, {} disagreements", rows.len(), bad);
    if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static MetricDef {
        metrics::find(name).unwrap()
    }

    #[test]
    fn host_metrics_may_be_apart_by_their_bound() {
        let m = def("host_grants_per_s");
        assert!(agree("w", m, 1_000_000.0, 810_000.0, true).ok);
        assert!(agree("w", m, 810_000.0, 1_000_000.0, true).ok);
        assert!(!agree("w", m, 1_000_000.0, 780_000.0, true).ok);
        assert!(agree("w", def("peak_rss_mb"), 100.0, 109.0, true).ok);
        assert!(!agree("w", def("peak_rss_mb"), 100.0, 112.0, true).ok);
    }

    #[test]
    fn simulated_metrics_must_be_identical_for_the_same_inputs() {
        let m = def("sim_lock_p50_us");
        assert!(agree("w", m, 34.816, 34.816, true).ok);
        assert!(!agree("w", m, 34.816, 35.36, true).ok);
        // Across seeds the metric's bound applies: one bucket is fine.
        assert!(agree("w", m, 34.816, 35.36, false).ok);
        assert!(!agree("w", m, 34.816, 39.0, false).ok);
    }

    #[test]
    fn per_layer_host_metrics_are_reported_not_gated() {
        let r = agree("w", def("switch.dataplane.ns_per_pkt"), 20.0, 31.0, true);
        assert!(r.ok && r.allowed.is_infinite());
        // ...but a per-layer count must repeat exactly.
        assert!(!agree("w", def("sim.events_fired"), 100.0, 101.0, true).ok);
        assert!(agree("w", def("sim.events_fired"), 100.0, 101.0, false).ok);
    }

    #[test]
    fn compare_names_the_differing_field() {
        let report = |digest: &str, mrps: f64| {
            Json::obj([
                ("seed", Json::Num(11.0)),
                ("seconds", Json::Num(10.0)),
                (
                    "workloads",
                    Json::obj([(
                        "micro_shared",
                        Json::obj([
                            ("sim_digest", Json::Str(digest.into())),
                            (
                                "end_to_end",
                                Json::obj([(
                                    "sim_lock_mrps",
                                    Json::obj([("median", Json::Num(mrps))]),
                                )]),
                            ),
                        ]),
                    )]),
                ),
            ])
        };
        let (rows, problems) = compare(&report("aa", 180.0), &report("aa", 180.0));
        assert!(problems.is_empty() && rows.iter().all(|r| r.ok));
        let (rows, problems) = compare(&report("aa", 180.0), &report("bb", 179.0));
        assert_eq!(
            problems,
            vec!["micro_shared: sim_digest differs".to_string()]
        );
        assert!(!rows[0].ok);
    }
}
