//! Shared builders and formatting for the figure harnesses.
//!
//! Every experiment prints tab-separated rows plus `#`-prefixed context
//! lines (scaling knobs, units) so outputs are self-describing and easy
//! to diff against EXPERIMENTS.md.

use netlock_core::prelude::*;
use netlock_sim::SimDuration;
use netlock_workloads::{hot_lock_stats, TpccConfig, TpccSource};

use crate::runner::Runner;

/// Time windows for one measurement.
#[derive(Clone, Copy, Debug)]
pub struct TimeScale {
    /// Warmup window (excluded from stats).
    pub warmup: SimDuration,
    /// Measurement window.
    pub measure: SimDuration,
}

impl TimeScale {
    /// `warmup` then `measure` simulated milliseconds.
    pub fn of_millis(warmup: u64, measure: u64) -> TimeScale {
        TimeScale {
            warmup: SimDuration::from_millis(warmup),
            measure: SimDuration::from_millis(measure),
        }
    }
}

/// Command-line flags shared by every harness binary.
///
/// ```text
/// [--quick | --full] [--threads N] [--sim-workers N]
/// ```
///
/// Valued flags accept both `--flag N` and `--flag=N`. `--full` (the
/// default) reproduces the committed `results/*.tsv` scale; `--quick`
/// runs the same sweep at smoke-test scale. `--threads N` sizes the
/// sweep worker pool (default: the host's available parallelism).
/// `--sim-workers N` asks for conservative in-simulation parallelism
/// (one logical process per rack or chain) where a scenario supports
/// it; the TSV is byte-identical for any `N`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BinArgs {
    /// Smoke-test scale instead of the full figure scale.
    pub quick: bool,
    /// Explicit worker count, if given.
    pub threads: Option<usize>,
    /// In-simulation worker threads for partitioned scenarios, if given.
    pub sim_workers: Option<usize>,
}

impl BinArgs {
    /// Pick the shared flags out of `args`. Everything else comes back
    /// in order, for the binary's own flags and positionals; `Err` is a
    /// shared flag with a missing or malformed value.
    pub fn parse_known(
        args: impl IntoIterator<Item = String>,
    ) -> Result<(BinArgs, Vec<String>), String> {
        let mut out = BinArgs::default();
        let mut rest = Vec::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((flag, value)) => (flag, Some(value.to_string())),
                None => (arg.as_str(), None),
            };
            match flag {
                "--quick" if inline.is_none() => out.quick = true,
                "--full" if inline.is_none() => out.quick = false,
                "--threads" | "--sim-workers" => {
                    let value = inline.or_else(|| args.next()).unwrap_or_default();
                    let n = match value.parse::<usize>() {
                        Ok(n) if n > 0 => n,
                        _ => return Err(format!("{flag} needs a positive integer, got {value:?}")),
                    };
                    if flag == "--threads" {
                        out.threads = Some(n);
                    } else {
                        out.sim_workers = Some(n);
                    }
                }
                _ => rest.push(arg),
            }
        }
        Ok((out, rest))
    }

    /// Parse `std::env::args` for a binary whose own arguments read
    /// `own` in the usage line; returns them unparsed beside the shared
    /// flags. Exits with usage on a malformed shared flag.
    pub fn parse_env(own: &str) -> (BinArgs, Vec<String>) {
        BinArgs::parse_known(std::env::args().skip(1))
            .unwrap_or_else(|err| BinArgs::usage(own, &err))
    }

    /// Print `err` and the usage line (shared flags, then `own`); exit 2.
    pub fn usage(own: &str, err: &str) -> ! {
        eprintln!("error: {err}");
        eprintln!("usage: [--quick | --full] [--threads N] [--sim-workers N] {own}");
        std::process::exit(2);
    }

    /// The sweep runner these arguments imply.
    pub fn runner(&self) -> Runner {
        self.threads
            .map_or_else(Runner::default, Runner::with_threads)
    }
}

/// Specification of a NetLock TPC-C rack (Figures 10–15).
#[derive(Clone, Debug)]
pub struct TpccRackSpec {
    /// Simulation seed.
    pub seed: u64,
    /// Client machines.
    pub clients: usize,
    /// Lock servers.
    pub lock_servers: usize,
    /// Transaction workers per client.
    pub workers_per_client: usize,
    /// One warehouse per client (true) vs ten (false).
    pub high_contention: bool,
    /// Switch memory given to the allocator, in queue slots.
    pub switch_slots: u32,
    /// Use the strawman random allocator instead of knapsack.
    pub random_alloc: bool,
    /// Extra cold locks offered to the allocator (exposes the random
    /// allocator's weakness — Fig. 13/14).
    pub cold_locks_in_stats: u32,
    /// Override every transaction's think time.
    pub think_override: Option<SimDuration>,
    /// Client retry timeout.
    pub retry_timeout: SimDuration,
}

/// Lock-server CPU time per message in a TPC-C rack. The paper's 18
/// MRPS/server is the microbenchmark peak (trivial uniform requests);
/// its TPC-C experiments show each server sustaining only ~1.5 M lock
/// requests/s (Fig. 13a's server bars), i.e. ≈1.5 µs of CPU per message
/// once real table management, skew and batching effects bite.
const TPCC_SERVER_SERVICE: SimDuration = SimDuration::from_nanos(1_500);

impl Default for TpccRackSpec {
    fn default() -> Self {
        TpccRackSpec {
            seed: 42,
            clients: 10,
            lock_servers: 2,
            workers_per_client: 16,
            high_contention: false,
            switch_slots: 100_000,
            random_alloc: false,
            cold_locks_in_stats: 0,
            think_override: None,
            retry_timeout: SimDuration::from_millis(20),
        }
    }
}

impl TpccRackSpec {
    /// The TPC-C generator configuration this spec implies.
    pub fn tpcc_config(&self) -> TpccConfig {
        let mut cfg = if self.high_contention {
            TpccConfig::high_contention(self.clients as u32)
        } else {
            TpccConfig::low_contention(self.clients as u32)
        };
        cfg.think_override = self.think_override;
        cfg
    }

    /// Total workers across clients (the contention bound for hot locks).
    pub fn total_workers(&self) -> u32 {
        (self.clients * self.workers_per_client) as u32
    }
}

/// Build the allocator input for a spec: the analytic hot set plus an
/// optional tail of cold customer rows.
pub fn tpcc_alloc_stats(spec: &TpccRackSpec) -> Vec<LockStats> {
    let cfg = spec.tpcc_config();
    let mut stats = hot_lock_stats(&cfg, spec.total_workers(), spec.lock_servers);
    for i in 0..spec.cold_locks_in_stats {
        let w = i % cfg.warehouses;
        let d = (i / cfg.warehouses) % 10;
        let c = i % 3_000;
        stats.push(LockStats {
            lock: netlock_workloads::tpcc::ids::customer(w, d, c),
            rate: 1e-6,
            contention: 4,
            home_server: (i as usize) % spec.lock_servers,
        });
    }
    stats
}

/// The allocation a spec implies (knapsack or the random strawman),
/// bounded by the paper-default layout's 10 000 queue regions.
pub fn tpcc_allocation(spec: &TpccRackSpec) -> Allocation {
    let stats = tpcc_alloc_stats(spec);
    if spec.random_alloc {
        let mut a = random_allocate(&stats, spec.switch_slots, spec.seed ^ 0xA110C);
        while a.in_switch.len() > 10_000 {
            let (lock, _slots, home) = a.in_switch.pop().expect("non-empty");
            a.in_server.push((lock, home));
        }
        a
    } else {
        netlock_switch::control::knapsack_allocate_bounded(&stats, spec.switch_slots, 10_000)
    }
}

/// Build and program a NetLock rack per spec, with TPC-C clients.
pub fn build_netlock_tpcc(spec: &TpccRackSpec) -> Rack {
    build_netlock_tpcc_on(spec, RackConfig::default(), TxnClientConfig::default())
}

/// [`build_netlock_tpcc`] over caller-chosen base configurations: the
/// spec sets the seed and server count of `rack` (service cost
/// [`TPCC_SERVER_SERVICE`]) and the workers and retry timeout of
/// `client`; every other field (lease and tick timescales, backoff
/// caps, …) is taken from the bases as given.
pub(crate) fn build_netlock_tpcc_on(
    spec: &TpccRackSpec,
    rack: RackConfig,
    client: TxnClientConfig,
) -> Rack {
    let mut rack = Rack::build(RackConfig {
        seed: spec.seed,
        lock_servers: spec.lock_servers,
        server: netlock_server::ServerConfig {
            service: TPCC_SERVER_SERVICE,
            ..rack.server
        },
        ..rack
    });
    rack.program(&tpcc_allocation(spec));
    let cfg = spec.tpcc_config();
    for _ in 0..spec.clients {
        rack.add_txn_client(
            TxnClientConfig {
                workers: spec.workers_per_client,
                retry_timeout: spec.retry_timeout,
                ..client.clone()
            },
            Box::new(TpccSource::new(cfg.clone())),
        );
    }
    rack
}

/// TPC-C sources for the baseline builders (one per client).
pub fn tpcc_sources(spec: &TpccRackSpec) -> Vec<TpccSource> {
    let cfg = spec.tpcc_config();
    (0..spec.clients)
        .map(|_| TpccSource::new(cfg.clone()))
        .collect()
}

/// Format requests/second as MRPS.
pub fn mrps(rps: f64) -> f64 {
    rps / 1e6
}

/// Format transactions/second as MTPS.
pub fn mtps(tps: f64) -> f64 {
    tps / 1e6
}

/// Milliseconds from nanoseconds.
pub fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// Microseconds from nanoseconds.
pub fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// One comparison row in the fig10/fig11 output.
#[derive(Clone, Debug)]
pub struct SystemResult {
    /// System name (DSLR, DrTM, NetChain, NetLock).
    pub system: &'static str,
    /// Contention setting label.
    pub contention: &'static str,
    /// Measured stats.
    pub stats: RunStats,
}

impl SystemResult {
    /// The TSV row for the comparison tables.
    pub fn tsv(&self) -> String {
        let lat = self.stats.txn_latency_summary();
        format!(
            "{}\t{}\t{:.3}\t{:.4}\t{:.3}\t{:.3}",
            self.system,
            self.contention,
            mrps(self.stats.lock_rps()),
            mtps(self.stats.tps()),
            ms(lat.avg_ns),
            ms(lat.p99_ns as f64),
        )
    }

    /// The header matching [`SystemResult::tsv`].
    pub fn tsv_header() -> &'static str {
        "system\tcontention\tlock_tput_mrps\ttxn_tput_mtps\tavg_lat_ms\tp99_lat_ms"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valued_flags_parse_in_both_spellings() {
        let parse = |args: &[&str]| BinArgs::parse_known(args.iter().map(|a| a.to_string()));
        let spaced = parse(&["--quick", "--sim-workers", "2", "--threads", "3", "fig09"]);
        let inline = parse(&["--quick", "--sim-workers=2", "--threads=3", "fig09"]);
        let want = BinArgs {
            quick: true,
            threads: Some(3),
            sim_workers: Some(2),
        };
        assert_eq!(spaced, Ok((want, vec!["fig09".to_string()])));
        assert_eq!(inline, spaced);
        // Unknown flags come back untouched, in order, for the binary.
        let (_, rest) = parse(&["--check-workers", "--full", "--rate", "2.5"]).unwrap();
        assert_eq!(rest, ["--check-workers", "--rate", "2.5"]);
        for bad in [
            &["--sim-workers"][..],
            &["--sim-workers=0"],
            &["--threads", "x"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn spec_contention_settings() {
        let mut spec = TpccRackSpec {
            clients: 10,
            ..Default::default()
        };
        assert_eq!(spec.tpcc_config().warehouses, 100);
        spec.high_contention = true;
        assert_eq!(spec.tpcc_config().warehouses, 10);
        assert_eq!(spec.total_workers(), 160);
    }

    #[test]
    fn alloc_stats_include_cold_tail() {
        let spec = TpccRackSpec {
            clients: 2,
            cold_locks_in_stats: 50,
            ..Default::default()
        };
        let stats = tpcc_alloc_stats(&spec);
        // 20 warehouses × (11 hot rows + 10 stock buckets) + 50 cold.
        assert_eq!(stats.len(), 20 * 21 + 50);
    }

    #[test]
    fn netlock_tpcc_rack_runs() {
        let spec = TpccRackSpec {
            clients: 2,
            workers_per_client: 4,
            ..Default::default()
        };
        let mut rack = build_netlock_tpcc(&spec);
        let stats = warmup_and_measure(
            &mut rack,
            SimDuration::from_millis(2),
            SimDuration::from_millis(5),
        );
        assert!(stats.txns > 100, "txns = {}", stats.txns);
        assert!(stats.grants > stats.txns, "multiple locks per txn");
        assert!(
            stats.switch_share() > 0.3,
            "hot locks should be switch-resident: {}",
            stats.switch_share()
        );
    }
}
