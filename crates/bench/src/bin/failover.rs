//! Multi-switch failover figure: availability and latency under a
//! per-partition crash schedule, swept over chain-replication factor
//! 1 / 2 / 3. Prints the two-section TSV (summary + grant timeline)
//! and exits nonzero on any oracle violation.
//!
//! `--check-workers` replays the sweep with 1 and 2 in-simulation
//! workers and byte-compares the audit digests — the CI smoke mode.
use netlock_bench::failover::{check_workers, render, run_sweep, Scale};
use netlock_bench::{BinArgs, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const OWN: &str = "[--check-workers]";

fn main() {
    let (args, rest) = BinArgs::parse_env(OWN);
    if let Some(other) = rest.iter().find(|a| *a != "--check-workers") {
        BinArgs::usage(OWN, &format!("unknown argument {other:?}"));
    }
    let scale = if args.quick {
        Scale::Quick
    } else {
        Scale::Full
    };
    let runs = if rest.is_empty() {
        run_sweep(scale, args.sim_workers.unwrap_or(1))
    } else {
        match check_workers(scale, 1, 2) {
            Ok(runs) => {
                println!("# check-workers: digests byte-identical at 1 and 2 workers");
                runs
            }
            Err(e) => {
                eprintln!("failover check-workers FAILED: {e}");
                std::process::exit(1);
            }
        }
    };
    print!("{}", render(scale, &runs));
    if runs.iter().any(|r| r.violations != 0) {
        std::process::exit(1);
    }
}
