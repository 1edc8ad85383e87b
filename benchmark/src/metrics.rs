//! The metric catalogue: every name the benchmark prints, with its
//! unit, direction, clock and (for end-to-end metrics) regression
//! bound. `BENCHMARK.json` declares the same names; `--smoke` and a
//! unit test check the two against each other.

use crate::stats::Better;

/// Which clock a metric is read from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Wall-clock or memory of the simulator process: carries the
    /// box's noise.
    Host,
    /// Simulated time or a count made by the program: repeats exactly
    /// for a fixed `(workload, seed, seconds)`.
    Sim,
}

/// One declared metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub clock: Clock,
    /// Share of the parent's median by which the metric may worsen;
    /// `None` for per-layer metrics, which are reported, not gated.
    pub bound: Option<f64>,
    pub what: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    clock: Clock,
    bound: f64,
    what: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        clock,
        bound: Some(bound),
        what,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    clock: Clock,
    what: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        clock,
        bound: None,
        what,
    }
}

use Better::{Higher, Lower};
use Clock::{Host, Sim};

/// What a user of the simulator sees. Simulated latencies carry the
/// unit `us_sim` so nobody reads them as host time. The bounds are set
/// from the spreads measured on the build box (`baseline/spread.txt`):
/// each is about three times the widest interquartile spread seen over
/// ten seeds, and at most the contract's 0.25.
pub const END_TO_END: [MetricDef; 6] = [
    e2e("setup_s", "s", Lower, Host, 0.25,
        "allocator run, rack build, program, client attach, simulated warm-up; median of the run's five set-ups, the first counted from process start"),
    e2e("host_grants_per_s", "grants/s", Higher, Host, 0.25,
        "lock grants received by clients in the measured simulated window / wall seconds of that window, each of its 32 slices taken from the fastest of three identical repetitions"),
    e2e("peak_rss_mb", "MB", Lower, Host, 0.10,
        "VmHWM when the first repetition of the timed window ends"),
    e2e("sim_lock_mrps", "MRPS", Higher, Sim, 0.02,
        "grants / simulated window (the paper's headline)"),
    e2e("sim_lock_p50_us", "us_sim", Lower, Sim, 0.10,
        "acquire-to-grant median, simulated"),
    e2e("sim_lock_p999_us", "us_sim", Lower, Sim, 0.20,
        "acquire-to-grant p99.9, simulated"),
];

/// Single layers, named by crate/module. Reported by the traced run;
/// not gated. A metric that does not apply to a workload reads 0.
pub const PER_LAYER: [MetricDef; 57] = [
    layer("sim_lock_samples", "count", Higher, Sim, "acquire-to-grant samples behind the latency quantiles"),
    layer("sim_txn_ktps", "kTPS", Higher, Sim, "transactions / simulated window (tpcc_mem_limited only)"),
    layer("sim_txn_p50_us", "us_sim", Lower, Sim, "transaction latency median (tpcc_mem_limited only)"),
    layer("sim_txn_p999_us", "us_sim", Lower, Sim, "transaction latency p99.9 (tpcc_mem_limited only)"),
    layer("sim_txn_samples", "count", Higher, Sim, "transaction latency samples"),
    layer("fail_share", "ratio", Lower, Sim,
        "(retransmissions + generation slots throttled by a full window + acquires ungranted after a one-lease drain) / (acquires sent + slots throttled)"),
    layer("setup.alloc_ms", "ms", Lower, Host, "span setup.alloc: allocator run"),
    layer("setup.build_ms", "ms", Lower, Host, "span setup.build: rack build, program, client attach"),
    layer("setup.warmup_ms", "ms", Lower, Host, "span setup.warmup: simulated warm-up"),
    layer("sim.events_fired", "count", Lower, Sim, "SimStats::events_fired over the measured window"),
    layer("sim.events_per_grant", "ratio", Lower, Sim, "events fired / grants"),
    layer("sim.timers_share", "ratio", Lower, Sim, "timers fired / events fired"),
    layer("sim.max_queue_depth", "count", Lower, Sim, "SimStats::max_queue_depth"),
    layer("sim.host_events_per_s", "1/s", Higher, Host, "events fired / wall seconds of the timed window"),
    layer("sim.queue.ns_per_event", "ns", Lower, Host, "captured delivery times through EventQueue::push/pop at the workload's queue depth"),
    layer("sim.spine.ns_per_event", "ns", Lower, Host, "inert ping-pong nodes through Simulator::run_until at the workload's node count and queue depth"),
    layer("sim.spine.share", "ratio", Lower, Host, "spine ns/event / timed ns/event"),
    layer("sim.metrics.ns_per_record", "ns", Lower, Host, "Histogram::record on captured latencies"),
    layer("sim.metrics.share", "ratio", Lower, Host, "histogram ns x records / timed wall"),
    layer("sim.par.w1_over_fused", "ratio", Higher, Host, "cluster2_shared: fused-loop wall / partition(_,1) wall, median of interleaved rounds"),
    layer("sim.par.speedup_w2", "ratio", Higher, Host, "cluster2_shared: partition(_,1) wall / partition(_,2) wall; 0 with one core"),
    layer("switch.dataplane.ns_per_pkt", "ns", Lower, Host, "captured switch-bound messages through DataPlane::process on an identically programmed data plane"),
    layer("switch.dataplane.allocs_per_pkt", "ratio", Lower, Host, "heap allocations per replayed packet"),
    layer("switch.dataplane.share", "ratio", Lower, Host, "data-plane ns x switch ops / timed wall"),
    layer("switch.dataplane.passes_per_pkt", "ratio", Lower, Sim, "DpStats::passes / data-plane operations"),
    layer("switch.dataplane.immediate_share", "ratio", Higher, Sim, "DpStats::grants_immediate / acquires"),
    layer("switch.dataplane.on_release_share", "ratio", Lower, Sim, "DpStats::grants_on_release / acquires"),
    layer("switch.dataplane.forwarded_share", "ratio", Lower, Sim, "DpStats::forwarded_server_locks / acquires"),
    layer("switch.dataplane.overflow_share", "ratio", Lower, Sim, "DpStats::forwarded_overflow / acquires"),
    layer("switch.priority.ns_per_pkt", "ns", Lower, Host, "the same stream through DataPlane::new_priority"),
    layer("switch.txn.lowered_ns_per_pkt", "ns", Lower, Host, "captured acquires through LoweredTxn::run (fcfs_enqueue_program)"),
    layer("switch.control.knapsack_ms", "ms", Lower, Host, "knapsack_allocate_bounded on the workload's allocator input"),
    layer("switch.grant_share", "ratio", Higher, Sim, "grants from the switch / grants"),
    layer("server.lock_table.ns_per_msg", "ns", Lower, Host, "captured server-bound messages through LockTable::acquire/release"),
    layer("server.lock_table.sweep_ns_per_entry", "ns", Lower, Host, "one lease sweep (LockTable::touched_locks + expire_leases per lock) over the replayed tables, per entry"),
    layer("server.lock_table.sweep_share", "ratio", Lower, Host, "sweep ns/entry x sweep ticks x mean table entries / timed wall"),
    layer("server.lock_table.share", "ratio", Lower, Host, "(lock-table ns x table ops) / timed wall + sweep share"),
    layer("server.lock_table.entries_end", "count", Lower, Sim, "LockTable::len summed over servers at the end of the window"),
    layer("server.msgs_per_grant", "ratio", Lower, Sim, "messages the servers' cores processed / grants"),
    layer("server.busy_share", "ratio", Lower, Sim, "messages x service time / (cores x window)"),
    layer("server.q2_peak_depth", "count", Lower, Sim, "ServerStats::q2_peak_depth"),
    layer("workloads.tpcc.ns_per_txn", "ns", Lower, Host, "TpccSource through the TxnSource trait"),
    layer("workloads.tpcc.locks_per_txn", "ratio", Lower, Sim, "locks per generated transaction"),
    layer("workloads.tpcc.share", "ratio", Lower, Host, "tpcc ns x transactions / timed wall"),
    layer("core.client.retries_per_grant", "ratio", Lower, Sim, "acquire retransmissions / grants"),
    layer("core.client.throttled_share", "ratio", Lower, Sim, "generation slots skipped by a full client window / slots"),
    layer("core.population.requests_per_batch", "ratio", Higher, Sim, "requests issued / AcquireBatch events sent"),
    layer("proto.codec.roundtrip_ns_per_msg", "ns", Lower, Host, "encode_msg + decode_msg on captured messages; off the run path, expected to move nothing"),
    layer("proto.packet_bytes", "count", Lower, Sim, "size_of::<Packet<NetLockMsg>>()"),
    layer("core.residual.ns_per_event", "ns", Lower, Host, "timed ns/event minus the probes' attributed ns/event: client logic, node dispatch, link model, stats"),
    layer("core.residual.share", "ratio", Lower, Host, "residual / timed ns/event"),
    layer("ledger.attributed_share", "ratio", Higher, Host, "1 - core.residual.share"),
    layer("trace.overhead_ratio", "ratio", Lower, Host, "traced / untraced wall of run.measure"),
    layer("trace.captured_events", "count", Higher, Sim, "TapEvent::Delivered packets captured for the probes"),
    layer("trace.oracle_violations", "count", Lower, Sim, "violations the lock-safety oracle reported"),
    layer("trace.host_grants_per_s", "grants/s", Higher, Host, "host_grants_per_s of the traced run's untraced window"),
    layer("trace.window_us_sim", "us_sim", Higher, Sim, "simulated window of the traced run"),
];

/// Look a metric up in either table.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::WORKLOADS;

    fn name_ok(name: &str, max: usize) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name.chars().next().unwrap().is_ascii_alphanumeric()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name_ok(m.name, 64), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.unit
            );
        }
        for m in &END_TO_END {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
        for w in &WORKLOADS {
            assert!(name_ok(w.name, 64));
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: {}",
                w.name,
                w.why.len()
            );
        }
    }

    /// `BENCHMARK.json` at the repo root declares exactly the
    /// catalogue.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let problems = crate::check_schema(&Json::parse(&text).unwrap());
        assert!(problems.is_empty(), "{problems:#?}");
    }
}
