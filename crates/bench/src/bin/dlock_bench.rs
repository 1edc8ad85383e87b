//! Real-threads delegation sweep: writes `results/dlock.tsv`-shaped
//! rows to stdout and a machine-readable `BENCH_dlock.json`. Run from
//! the repo root:
//!
//! ```text
//! cargo run --release --bin dlock_bench > results/dlock.tsv
//! ```
//!
//! Sweeps the three `netlock-dlock` backends (mutex baseline, flat
//! combining, CCSynch delegation) over threads × contention (hot-key
//! Zipf vs uniform, shared vs exclusive) × critical-section length,
//! all driving the actual `server::LockTable`. Also measures the
//! sequential table's ns-per-message and reports it as
//! `seq_lock_table_ns_per_op`, beside the paper's 222 ns constant that
//! the simulation's server model charges (`ServerConfig::service`).
//!
//! `--quick` shrinks op counts and the thread ladder (capped at the
//! host's cores, so CI smoke runs finish fast and oversubscribed points
//! don't dominate). `--threads N` caps the ladder; a positional
//! argument overrides the JSON path.
//!
//! The report is a measurement, not a gate: nothing compares its
//! timings against a committed baseline. That the sequential cost is
//! sane and every backend reports throughput is held by tier-1
//! (`bench::dlock::tests`); timings of the same table under load are
//! the repo benchmark's `server.lock_table.*` metrics.

use netlock_bench::dlock::{
    run_point, seq_lock_table_ns_per_message, thread_counts, Backend, Dist, Mix, PointResult,
    PointSpec, HOT_LOCKS, HOT_THETA, UNIFORM_LOCKS,
};
use netlock_bench::report::Json;
use netlock_bench::BinArgs;

/// Total measured ops per point, split across the point's threads.
const FULL_OPS: usize = 120_000;
const QUICK_OPS: usize = 24_000;

fn main() {
    let (args, rest) = BinArgs::parse_env("[OUT.json]");
    let (quick, cap) = (args.quick, args.threads);
    let path = rest.last().map_or("BENCH_dlock.json", |p| p.as_str());

    let threads_available = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // Full runs sweep the whole ladder to 8 so committed artifacts have
    // one shape everywhere (threads_available in the JSON tells readers
    // how many were real cores); quick runs cap at the host so CI smoke
    // stays fast and oversubscribed points don't dominate.
    let max_threads = cap.unwrap_or(if quick {
        threads_available.clamp(2, 4)
    } else {
        8
    });
    let ladder = thread_counts(max_threads);
    let dists = [Dist::Hot, Dist::Uniform];
    let mixes = [Mix::Exclusive, Mix::Mixed];
    let spins: &[u32] = if quick { &[0] } else { &[0, 100] };
    let total_ops = if quick { QUICK_OPS } else { FULL_OPS };

    eprintln!("# sequential lock-table cost ...");
    let seq_rounds = if quick { 100_000 } else { 500_000 };
    let seq_ns =
        seq_lock_table_ns_per_message(seq_rounds).min(seq_lock_table_ns_per_message(seq_rounds));

    println!("# dlock_bench: delegation backends over server::LockTable");
    println!(
        "# hot = zipf(theta={HOT_THETA}) over {HOT_LOCKS} locks; uniform = {UNIFORM_LOCKS} locks"
    );
    println!("# latency = run() round-trip (delegation cost), ns");
    println!(
        "# threads_available = {threads_available}; seq_lock_table_ns_per_message = {seq_ns:.1}"
    );
    println!("{}", PointResult::tsv_header());

    let mut results: Vec<PointResult> = Vec::new();
    for backend in Backend::ALL {
        eprintln!("# sweeping {} ...", backend.label());
        for &threads in &ladder {
            for dist in dists {
                for mix in mixes {
                    for &cs_spins in spins {
                        let ops_per_thread = (total_ops / threads).max(1_000);
                        let r = run_point(PointSpec {
                            backend,
                            threads,
                            dist,
                            mix,
                            cs_spins,
                            ops_per_thread,
                            warmup_per_thread: ops_per_thread / 5,
                        });
                        println!("{}", r.tsv());
                        results.push(r);
                    }
                }
            }
        }
    }

    // The headline contended point: most threads, hot keys, all
    // exclusive, no padding — where delegation either pays or doesn't.
    let contended_threads = *ladder.last().expect("ladder non-empty");
    let contended = |backend: Backend| -> f64 {
        results
            .iter()
            .find(|r| {
                r.spec.backend == backend
                    && r.spec.threads == contended_threads
                    && r.spec.dist == Dist::Hot
                    && r.spec.mix == Mix::Exclusive
                    && r.spec.cs_spins == 0
            })
            .map(|r| r.mops())
            .unwrap_or(0.0)
    };
    let (m, fc, cc) = (
        contended(Backend::Mutex),
        contended(Backend::FlatCombining),
        contended(Backend::CcSynch),
    );

    let backends = Backend::ALL
        .iter()
        .map(|&b| {
            Json::obj([
                ("backend", Json::str(b.label())),
                (
                    "points",
                    Json::Arr(
                        results
                            .iter()
                            .filter(|r| r.spec.backend == b)
                            .map(|r| r.json())
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();

    let report = Json::obj([
        ("schema", Json::str("netlock-bench-dlock/1")),
        ("quick", Json::Bool(quick)),
        ("threads_available", Json::Int(threads_available as u64)),
        ("seq_lock_table_ns_per_op", Json::Num(seq_ns)),
        ("backends", Json::Arr(backends)),
        (
            "contended",
            Json::obj([
                ("threads", Json::Int(contended_threads as u64)),
                ("dist", Json::str("hot")),
                ("mix", Json::str("excl")),
                ("mutex_mops", Json::Num(m)),
                ("flat_combining_mops", Json::Num(fc)),
                ("ccsynch_mops", Json::Num(cc)),
                ("fc_over_mutex", Json::Num(fc / m.max(1e-12))),
                ("cc_over_mutex", Json::Num(cc / m.max(1e-12))),
            ]),
        ),
    ]);
    std::fs::write(path, report.render()).expect("write report");
    eprintln!("# wrote {path}");
}
