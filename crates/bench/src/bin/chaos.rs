//! Runs the chaos suite: seeded fault schedules over the micro and
//! TPC-C racks with the lock-safety oracle attached. Prints the
//! scenario report as TSV (at default scale, `results/chaos.tsv`) and
//! exits nonzero if any schedule produced an oracle violation.
//!
//! Runs under the counting global allocator, like the alloc-tracking
//! integration tests, so chaos runs exercise the exact
//! allocator configuration the zero-allocation claims are made under.
use netlock_bench::chaos::{report, run_suite, seeds_per_workload};
use netlock_bench::{BinArgs, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let args = BinArgs::parse();
    let seeds = seeds_per_workload(args.quick);
    let runs = run_suite(seeds);
    print!("{}", report(seeds, &runs));
    if runs.iter().any(|r| !r.is_clean()) {
        std::process::exit(1);
    }
}
