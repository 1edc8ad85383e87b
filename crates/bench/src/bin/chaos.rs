//! Runs the chaos suite: seeded fault schedules over the micro and
//! TPC-C racks with the lock-safety oracle attached. Prints the
//! scenario report as TSV and exits nonzero if any schedule produced
//! an oracle violation.
//!
//! Runs under the counting global allocator, like the alloc-tracking
//! integration tests, so chaos runs exercise the exact
//! allocator configuration the zero-allocation claims are made under.
use netlock_bench::{BinArgs, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let args = BinArgs::parse();
    let seeds = if args.quick { 4 } else { 16 };
    println!(
        "# scaling: {seeds} seeds per workload ({} schedules total)",
        seeds * 2
    );
    let runs = netlock_bench::chaos::run_suite(seeds);
    print!("{}", netlock_bench::chaos::render(&runs));
    if runs.iter().any(|r| !r.is_clean()) {
        std::process::exit(1);
    }
}
