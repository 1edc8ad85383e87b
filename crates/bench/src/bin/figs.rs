//! Regenerates the committed result files (see `netlock_bench::figures`).
//!
//! `figs <name>` prints one figure's TSV, `figs all` every figure in
//! sequence; `--check` instead compares each with `results/<name>.tsv`
//! byte for byte and exits nonzero on any difference. Each figure's
//! sweep fans out over the shared worker pool (`--threads N`, default:
//! available parallelism); stdout is byte-identical for any thread
//! count. Per-figure wall-clock goes to stderr so a regression is
//! attributable to a figure.
use std::path::Path;
use std::time::Instant;

use netlock_bench::figures::{first_difference, FIGURES};
use netlock_bench::BinArgs;

const OWN: &str = "<fig08..fig15 | flash_crowd | tenant_churn | failover | chaos | all> [--check]";

fn main() {
    let (args, rest) = BinArgs::parse_env(OWN);
    let mut check = false;
    let mut name = None;
    for arg in rest {
        match arg.as_str() {
            "--check" => check = true,
            _ if name.is_none() && !arg.starts_with('-') => name = Some(arg),
            _ => BinArgs::usage(OWN, &format!("unknown argument {arg:?}")),
        }
    }
    let name = name.unwrap_or_else(|| BinArgs::usage(OWN, "which figure?"));
    let selected: Vec<_> = FIGURES
        .iter()
        .filter(|(fig, _)| name == "all" || name == *fig)
        .collect();
    if selected.is_empty() {
        BinArgs::usage(OWN, &format!("unknown figure {name:?}"));
    }
    let defaults = BinArgs {
        threads: args.threads,
        ..Default::default()
    };
    if check && args != defaults {
        BinArgs::usage(
            OWN,
            "--check compares default-flag output; only --threads combines with it",
        );
    }
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let runner = args.runner();
    eprintln!("# sweep runner: {} thread(s)", runner.threads());
    let t0 = Instant::now();
    let mut stale = 0;
    for (i, (fig, render)) in selected.into_iter().enumerate() {
        let t = Instant::now();
        let out = render(&args, &runner);
        eprintln!("# {fig}: {:.1}s", t.elapsed().as_secs_f64());
        if check {
            let path = results.join(format!("{fig}.tsv"));
            let committed = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
            if committed == out {
                println!("ok   {fig}");
            } else {
                println!("FAIL {fig}: {}", first_difference(&committed, &out));
                stale += 1;
            }
        } else {
            if i > 0 {
                println!();
            }
            print!("{out}");
        }
    }
    eprintln!("# done in {:.1}s", t0.elapsed().as_secs_f64());
    if stale > 0 {
        std::process::exit(1);
    }
}
