//! Committed results are what the code produces: six of the quicker
//! figures, rendered through the same table `figs` prints from, equal
//! their `results/<name>.tsv` byte for byte.
//!
//! `figs all --check` (CI's `figure-smoke`) covers all twelve files;
//! these six keep the identity check inside `cargo test`, and between
//! them run the DSLR, DrTM and NetChain clients against NetLock under
//! TPC-C, the knapsack rack, the partitioned failover chains, the
//! eight-rack population cluster and tenant churn. One more runs the
//! `figs` binary itself, to pin that its output ignores the environment.

use netlock_bench::figures::{first_difference, FIGURES};
use netlock_bench::BinArgs;

fn assert_committed(name: &str) {
    let (_, render) = FIGURES
        .iter()
        .find(|(fig, _)| *fig == name)
        .unwrap_or_else(|| panic!("no figure named {name}"));
    let args = BinArgs::default();
    let rendered = render(&args, &args.runner());
    let path = format!("{}/../../results/{name}.tsv", env!("CARGO_MANIFEST_DIR"));
    let committed =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    assert!(
        committed == rendered,
        "{name}.tsv {}",
        first_difference(&committed, &rendered)
    );
}

#[test]
fn fig10_is_its_committed_file() {
    assert_committed("fig10");
}

#[test]
fn fig11_is_its_committed_file() {
    assert_committed("fig11");
}

#[test]
fn fig13_is_its_committed_file() {
    assert_committed("fig13");
}

#[test]
fn failover_is_its_committed_file() {
    assert_committed("failover");
}

#[test]
fn flash_crowd_is_its_committed_file() {
    assert_committed("flash_crowd");
}

#[test]
fn tenant_churn_is_its_committed_file() {
    assert_committed("tenant_churn");
}

/// A figure depends only on its command line: `figs fig09 --quick`
/// prints the same bytes with the `NETLOCK_CALIBRATED*` variables set
/// as without them, because the server's per-message cost is a field of
/// `ServerConfig`, not a value read from the environment.
#[test]
fn fig09_ignores_the_environment() {
    let run = |set: bool| {
        let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_figs"));
        cmd.args(["fig09", "--quick"]);
        if set {
            cmd.env("NETLOCK_CALIBRATED_NS", "15")
                .env("NETLOCK_CALIBRATED", "1");
        } else {
            cmd.env_remove("NETLOCK_CALIBRATED_NS")
                .env_remove("NETLOCK_CALIBRATED");
        }
        let out = cmd.output().expect("figs runs");
        assert!(out.status.success(), "figs fig09 --quick failed: {out:?}");
        String::from_utf8(out.stdout).expect("TSV is UTF-8")
    };
    let (set, unset) = (run(true), run(false));
    assert!(!unset.is_empty());
    assert!(
        set == unset,
        "fig09 with the variables unset (committed) and set (regenerated) differ at {}",
        first_difference(&unset, &set)
    );
}
