//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! netlock-benchmark --workload W --seed N --seconds S --trace 0|1
//!     one run, the BENCHMARK.json contract: the last stdout line is
//!     {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
//! netlock-benchmark [--seed N] [--workload W] [--seconds S] [--smoke] [--out FILE]
//!     the suite: per workload three timed runs and one traced run,
//!     each its own process; prints every metric and writes the report
//! netlock-benchmark --compare A.json B.json
//!     do two suite reports agree within the benchmark's own bounds?
//! netlock-benchmark --spread N [--seed FIRST] [--workload W] [--seconds S]
//!     N timed runs per workload, each with another seed: the spread of
//!     every end-to-end metric against its bound, as the driver takes it
//! netlock-benchmark --print-schema
//!     BENCHMARK.json as the catalogue and the workload table declare it
//! ```

mod adapter;
mod alloc;
mod json;
mod metrics;
mod run;
mod spans;
mod stats;
mod suite;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use json::Json;
use metrics::{Clock, END_TO_END, PER_LAYER};
use run::{RunArgs, RunResult, CAPTURE_CAP};
use workloads::WORKLOADS;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 11;
/// `--seconds` used when not given: `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 10.0;

/// Parsed command line.
#[derive(Debug, Default)]
struct Cli {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    report: Option<PathBuf>,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    spread: Option<usize>,
    print_schema: bool,
}

fn usage(err: &str) -> ExitCode {
    eprintln!("error: {err}");
    eprintln!(
        "usage: netlock-benchmark --workload W --seed N --seconds S --trace 0|1 [--report FILE]\n       \
         netlock-benchmark [--seed N] [--workload W] [--seconds S] [--smoke] [--out FILE]\n       \
         netlock-benchmark --compare A.json B.json\n       \
         netlock-benchmark --spread N [--seed FIRST] [--workload W] [--seconds S]\n       \
         netlock-benchmark --print-schema\n\
         workloads: {}",
        WORKLOADS.map(|w| w.name).join(", ")
    );
    ExitCode::from(2)
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => {
                let v = value("a whole number")?;
                cli.seed = Some(v.parse().map_err(|_| format!("bad --seed {v:?}"))?);
            }
            "--seconds" => {
                let v = value("a number of seconds")?;
                let s: f64 = v.parse().map_err(|_| format!("bad --seconds {v:?}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {v}"));
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                })
            }
            "--smoke" => cli.smoke = true,
            "--print-schema" => cli.print_schema = true,
            "--spread" => {
                let v = value("a number of runs")?;
                match v.parse::<usize>() {
                    Ok(n) if n >= 2 => cli.spread = Some(n),
                    _ => return Err(format!("--spread needs at least 2 runs, got {v:?}")),
                }
            }
            "--report" => cli.report = Some(PathBuf::from(value("a file path")?)),
            "--out" => cli.out = Some(PathBuf::from(value("a file path")?)),
            "--compare" => {
                let a = PathBuf::from(value("two report files")?);
                let b = PathBuf::from(value("two report files")?);
                cli.compare = Some((a, b));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = &cli.workload {
        if workloads::find(w).is_none() {
            return Err(format!("unknown workload {w:?}"));
        }
    }
    Ok(cli)
}

/// `benchmark/` — where `out/` and `baseline/` live. `cargo run` sets
/// `CARGO_MANIFEST_DIR` for the program; a copied binary falls back to
/// the directory it was built from.
pub fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

/// The command `BENCHMARK.json` declares; the driver appends
/// `--workload W --seed N --seconds S --trace 0|1`.
const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// `BENCHMARK.json`, generated from the catalogue and the workload
/// table so the three cannot drift apart.
fn schema() -> Json {
    let metric = |m: &metrics::MetricDef| {
        let mut fields = vec![
            ("name", Json::Str(m.name.into())),
            ("unit", Json::Str(m.unit.into())),
            (
                "better",
                Json::Str(
                    match m.better {
                        stats::Better::Higher => "higher",
                        stats::Better::Lower => "lower",
                    }
                    .into(),
                ),
            ),
        ];
        if let Some(b) = m.bound {
            fields.push(("bound", Json::Num(b)));
        }
        Json::obj(fields)
    };
    Json::obj([
        (
            "command",
            Json::Arr(COMMAND.iter().map(|c| Json::Str((*c).into())).collect()),
        ),
        ("paths", Json::Arr(vec![Json::Str("benchmark".into())])),
        ("run_seconds", Json::Num(DEFAULT_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj([
                            ("name", Json::Str(w.name.into())),
                            ("why", Json::Str(w.why.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
}

/// Problems found comparing a parsed `BENCHMARK.json` against what
/// the catalogue and the workload table declare; empty when they agree.
pub fn check_schema(bench: &Json) -> Vec<String> {
    let want = schema();
    let keys = |j: &Json| -> Vec<String> {
        j.as_obj()
            .unwrap_or_default()
            .iter()
            .map(|(k, _)| k.clone())
            .collect()
    };
    if keys(bench) != keys(&want) {
        return vec![format!(
            "BENCHMARK.json has keys {:?}, the benchmark declares {:?}",
            keys(bench),
            keys(&want)
        )];
    }
    keys(&want)
        .iter()
        .filter(|k| bench.get(k) != want.get(k))
        .map(|k| format!("BENCHMARK.json: `{k}` differs from what the benchmark declares (regenerate with --print-schema)"))
        .collect()
}

/// Human-readable account of one run, on stdout ahead of the contract
/// line.
fn print_run(r: &RunResult) {
    let a = &r.args;
    println!(
        "# {} seed {} seconds {} trace {} — {}",
        a.spec.name,
        a.seed,
        a.seconds,
        u8::from(a.trace),
        a.spec.paper_ref
    );
    println!("# simulated results are validated by shape only (EXPERIMENTS.md): no error figure against the paper is claimed");
    for (m, v) in &r.metrics {
        let clock = match m.clock {
            Clock::Host => "host",
            Clock::Sim => "sim",
        };
        println!("{:<40} {:>18.6} {:<9} {}", m.name, v, m.unit, clock);
    }
    if !r.setup_samples.is_empty() {
        println!("# setup_s samples: {:?}", r.setup_samples);
    }
    println!(
        "# window wall-clock per repetition {:?} s, {:.3} s with every slice at its fastest; sim digest {:016x}",
        r.wall_s,
        r.slice_secs.iter().sum::<f64>(),
        r.sim_digest
    );
    for c in r.checks.iter().filter(|c| !c.ok) {
        println!("# CHECK FAILED {}: {}", c.name, c.detail);
    }
}

fn single_run(cli: &Cli, process_start: Instant) -> ExitCode {
    let (Some(workload), Some(trace)) = (&cli.workload, cli.trace) else {
        return usage("a single run needs --workload and --trace");
    };
    let spec = workloads::find(workload).expect("validated by parse_cli");
    let seconds = cli.seconds.unwrap_or(DEFAULT_SECONDS);
    let args = RunArgs {
        spec,
        seed: cli.seed.unwrap_or(DEFAULT_SEED),
        seconds,
        trace,
        // Smoke runs cap the capture at 100 K events.
        capture_cap: if seconds < 1.0 { 100_000 } else { CAPTURE_CAP },
    };
    let result = run::run(args, process_start);
    print_run(&result);
    if trace {
        let dir = package_dir().join("out");
        let path = dir.join(format!("{}.trace.json", spec.name));
        if let Err(e) = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, result.spans.to_json().render_pretty()))
        {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &cli.report {
        if let Err(e) = std::fs::write(path, result.to_json().render_pretty()) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", result.contract_line());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => return usage(&e),
    };
    if cli.print_schema {
        print!("{}", schema().render_pretty());
        return ExitCode::SUCCESS;
    }
    if let Some((a, b)) = &cli.compare {
        return suite::compare_files(a, b);
    }
    if cli.trace.is_some() {
        return single_run(&cli, process_start);
    }
    if let Some(runs) = cli.spread {
        return suite::run_spread(
            cli.workload.as_deref(),
            cli.seed.unwrap_or(1),
            cli.seconds.unwrap_or(DEFAULT_SECONDS),
            runs,
        );
    }
    suite::run_suite(
        cli.workload.as_deref(),
        cli.seed.unwrap_or(DEFAULT_SEED),
        cli.seconds,
        cli.smoke,
        cli.out.as_deref(),
    )
}
