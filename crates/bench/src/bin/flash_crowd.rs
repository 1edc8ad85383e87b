//! Emits the flash-crowd scenario TSV (see `netlock_bench::flash_crowd`):
//! a diurnal flash crowd from up to a million virtual clients driven
//! through aggregate population nodes — the same output as
//! `figs flash_crowd`.
//!
//! `--full` (default) reproduces the committed `results/flash_crowd.tsv`
//! (1M virtual clients, 8 racks); `--quick` runs the 100K-client smoke
//! scale with the same TSV shape. `--sim-workers N` advances the
//! partitioned cluster with N threads — the TSV is byte-identical for
//! any N. `--speedup` instead prints the wall-clock comparison between
//! the aggregate build and the equivalent individual-client build.

use netlock_bench::flash_crowd::{self, FlashCrowdSpec};
use netlock_bench::BinArgs;
use netlock_sim::SimDuration;

const OWN: &str = "[--speedup [--rate R] [--nodes N]]";

fn main() {
    let (args, rest) = BinArgs::parse_env(OWN);
    let mut speedup = false;
    let mut rate = 10.0f64;
    let mut nodes = 400usize;
    let mut rest = rest.into_iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--speedup" => speedup = true,
            "--rate" => {
                rate = rest
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&r: &f64| r > 0.0)
                    .unwrap_or_else(|| BinArgs::usage(OWN, "--rate needs a positive number"));
            }
            "--nodes" => {
                nodes = rest
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| BinArgs::usage(OWN, "--nodes needs a positive integer"));
            }
            other => BinArgs::usage(OWN, &format!("unknown argument {other:?}")),
        }
    }
    if speedup {
        let vclients = 100_000u64;
        let measure = SimDuration::from_millis(if args.quick { 100 } else { 400 });
        let (agg, ind, requests) = flash_crowd::speedup_point(vclients, rate, nodes, measure, 90);
        println!("# {vclients} virtual clients x {rate} rps, {measure} simulated, shared queue");
        println!("aggregate_s\tindividual_s\tspeedup\trequests");
        println!(
            "{agg:.3}\t{ind:.3}\t{:.1}\t{requests}",
            ind / agg.max(1e-12)
        );
        return;
    }
    let spec = if args.quick {
        FlashCrowdSpec::quick()
    } else {
        FlashCrowdSpec::full()
    };
    print!(
        "{}",
        flash_crowd::render(&spec, args.sim_workers.unwrap_or(1))
    );
}
