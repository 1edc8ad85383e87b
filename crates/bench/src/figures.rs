//! The figure table: every committed `results/<name>.tsv` and the one
//! function that renders it.
//!
//! The `figs` binary prints these (`figs fig09 --quick`, `figs all`) and
//! checks them (`figs all --check`): at the default flags a figure's
//! render is its committed file, byte for byte.

use crate::common::{BinArgs, TimeScale};
use crate::failover::Scale;
use crate::flash_crowd::FlashCrowdSpec;
use crate::runner::Runner;
use crate::tenant_churn::TenantChurnSpec;
use crate::{
    chaos, failover, fig08, fig09, fig10, fig12, fig13, fig14, fig15, flash_crowd, tenant_churn,
};

/// Renders one result file from the shared flags.
pub type RenderFn = fn(&BinArgs, &Runner) -> String;

/// The figure's windows at these flags: `quick` under `--quick`, else
/// `full`, each `(warmup, measure)` in simulated milliseconds. Only the
/// measured values change with the scale, never the TSV's shape.
fn scale(args: &BinArgs, quick: (u64, u64), full: (u64, u64)) -> TimeScale {
    let (warmup, measure) = if args.quick { quick } else { full };
    TimeScale::of_millis(warmup, measure)
}

fn scaled(scale: TimeScale, unit: &str, body: String) -> String {
    format!(
        "# scaling: {} warmup, {} measure{unit} (simulated time)\n{body}",
        scale.warmup, scale.measure
    )
}

/// `(name, render)` for every result file, in `figs all` order.
pub const FIGURES: [(&str, RenderFn); 12] = [
    ("fig08", |args, runner| {
        let scale = scale(args, (1, 2), (1, 5));
        scaled(scale, " per point", fig08::render(runner, scale))
    }),
    // With `--sim-workers N`: the cluster variant, two fig09 lock-switch
    // racks in one partitioned simulator advanced by `N` threads.
    ("fig09", |args, runner| {
        let scale = scale(args, (1, 2), (1, 3));
        let body = match args.sim_workers {
            Some(workers) => fig09::render_cluster(scale, 2, workers),
            None => fig09::render(runner, scale),
        };
        scaled(scale, " per point", body)
    }),
    ("fig10", |args, runner| {
        let scale = scale(args, (2, 10), (10, 50));
        scaled(scale, "", fig10::render(runner, 10, 2, scale))
    }),
    ("fig11", |args, runner| {
        let scale = scale(args, (2, 10), (10, 50));
        scaled(scale, "", fig10::render(runner, 6, 6, scale))
    }),
    ("fig12", |args, runner| {
        let scaling = if args.quick {
            "# scaling: 0.4 s simulated series, 20 ms sampling; think time 500 us\n"
        } else {
            "# scaling: 2 s simulated series, 100 ms sampling; think time 500 us\n"
        };
        scaling.to_string() + &fig12::render(runner, args.quick)
    }),
    ("fig13", |args, runner| {
        let scale = scale(args, (2, 10), (10, 50));
        scaled(scale, "", fig13::render(runner, scale))
    }),
    ("fig14", |args, runner| {
        let scale = scale(args, (1, 5), (5, 25));
        scaled(scale, " per point", fig14::render(runner, scale))
    }),
    ("fig15", |args, _| {
        let scaling = if args.quick {
            "# scaling: 1.5 s simulated timeline (paper: 20 s), 50 ms sampling\n"
        } else {
            "# scaling: 6 s simulated timeline (paper: 20 s), 200 ms sampling\n"
        };
        scaling.to_string() + &fig15::render(args.quick)
    }),
    ("flash_crowd", |args, _| {
        let spec = if args.quick {
            FlashCrowdSpec::quick()
        } else {
            FlashCrowdSpec::full()
        };
        flash_crowd::render(&spec, args.sim_workers.unwrap_or(1))
    }),
    ("tenant_churn", |args, _| {
        let spec = if args.quick {
            TenantChurnSpec::quick()
        } else {
            TenantChurnSpec::full()
        };
        tenant_churn::render(&spec)
    }),
    ("failover", |args, _| {
        let scale = if args.quick {
            Scale::Quick
        } else {
            Scale::Full
        };
        let runs = failover::run_sweep(scale, args.sim_workers.unwrap_or(1));
        failover::render(scale, &runs)
    }),
    // Every chaos schedule's oracle audit digest, so a moved grant
    // anywhere in the 32 schedules shows up here.
    ("chaos", |args, _| {
        let seeds = chaos::seeds_per_workload(args.quick);
        chaos::report(seeds, &chaos::run_suite(seeds))
    }),
];

/// Where the committed file and the regenerated output first part ways.
pub fn first_difference(committed: &str, regenerated: &str) -> String {
    let (mut old, mut new) = (committed.lines(), regenerated.lines());
    let mut line = 1;
    loop {
        let (o, n) = (old.next(), new.next());
        if o != n || o.is_none() {
            let show =
                |l: Option<&str>| l.map_or("<end of file>".to_string(), |l| format!("{l:?}"));
            return format!(
                "line {line}: committed {}, regenerated {}",
                show(o),
                show(n)
            );
        }
        line += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_figure_has_a_committed_result_file() {
        let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        for (name, _) in FIGURES {
            let path = results.join(format!("{name}.tsv"));
            assert!(path.is_file(), "{} is missing", path.display());
        }
    }
}
