//! One benchmark run: set-up, the timed window, correctness checks,
//! and — in a traced run — the oracle, the replay probes and the
//! per-layer ledger.

use std::time::Instant;

use crate::adapter::{self, Captured, ClientSide, Cumulative, Scenario, TraceCounts, LEASE_US};
use crate::json::Json;
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::spans::Spans;
use crate::stats::{median, peak_rss_mb, quantile};
use crate::workloads::{Shape, WorkloadSpec};

/// Lock operations' worth of `TapEvent::Delivered` packets the traced
/// run keeps for the probes.
pub const CAPTURE_CAP: usize = 2_000_000;
/// Times a run measures the window: each repetition is a fresh
/// instance of the identical deterministic simulation, so slice `i`
/// does the same work every time and its fastest repetition is the
/// box's least disturbed measurement of that work.
const WINDOW_REPS: usize = 3;
/// Set-ups made after the windows, on top of one per repetition;
/// `setup_s` is the median of them all.
const EXTRA_SETUPS: usize = 2;
/// Each window runs as this many equal simulated slices, each timed on
/// its own.
const SLICES: u64 = 32;

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct RunArgs {
    pub spec: &'static WorkloadSpec,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub capture_cap: usize,
}

/// One named pass/fail check behind `correct`.
#[derive(Clone, Debug)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// Everything one run produced.
pub struct RunResult {
    pub args: RunArgs,
    pub checks: Vec<Check>,
    pub attempted: u64,
    pub failed: u64,
    /// `(definition, value)` for the metrics of this run's mode.
    pub metrics: Vec<(&'static MetricDef, f64)>,
    /// Digest of every simulated result of the measured window.
    pub sim_digest: u64,
    /// Simulated counts that must repeat exactly, by name.
    pub sim_counts: Vec<(&'static str, u64)>,
    /// `setup_s` samples (timed run).
    pub setup_samples: Vec<f64>,
    /// Fastest repetition of each slice of the window, seconds.
    pub slice_secs: Vec<f64>,
    /// Wall-clock of each repetition of the window.
    pub wall_s: Vec<f64>,
    pub spans: Spans,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// The contract's last stdout line.
    pub fn contract_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(m, v)| {
                    (
                        m.name,
                        Json::obj([("value", Json::num(*v)), ("unit", Json::Str(m.unit.into()))]),
                    )
                })),
            ),
        ])
        .render()
    }

    /// The full record the suite mode aggregates.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::Str(self.args.spec.name.into())),
            ("seed", Json::Num(self.args.seed as f64)),
            ("seconds", Json::Num(self.args.seconds)),
            ("trace", Json::Bool(self.args.trace)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("sim_digest", Json::Str(format!("{:016x}", self.sim_digest))),
            ("window_wall_s", Json::nums(&self.wall_s)),
            ("setup_samples_s", Json::nums(&self.setup_samples)),
            ("best_slice_s", Json::nums(&self.slice_secs)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(m, v)| (m.name, Json::num(*v)))),
            ),
            (
                "sim_counts",
                Json::obj(
                    self.sim_counts
                        .iter()
                        .map(|(k, v)| (*k, Json::Num(*v as f64))),
                ),
            ),
            ("spans", self.spans.to_json()),
            (
                "checks",
                Json::Arr(
                    self.checks
                        .iter()
                        .map(|c| {
                            Json::obj([
                                ("name", Json::Str(c.name.into())),
                                ("ok", Json::Bool(c.ok)),
                                ("detail", Json::Str(c.detail.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// The measured window of one scenario instance.
struct Window {
    measure_us: u64,
    /// Wall-clock of the whole window.
    wall_s: f64,
    /// Wall-clock of each slice.
    slice_secs: Vec<f64>,
    client: ClientSide,
    counts: Cumulative,
    /// `LockTable::len` summed over servers when the window started.
    table_entries_start: u64,
    node_count: usize,
}

impl Window {
    fn sim_s(&self) -> f64 {
        self.measure_us as f64 / 1e6
    }

    /// FNV-1a over every simulated result (not over host timings).
    fn digest(&self) -> u64 {
        let text = format!("{}|{:?}|{:?}", self.measure_us, self.client, self.counts);
        text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    fn sim_counts(&self) -> Vec<(&'static str, u64)> {
        let (c, n) = (&self.client, &self.counts);
        vec![
            ("grants", c.grants),
            ("grants_switch", c.grants_switch),
            ("grants_server", c.grants_server),
            ("issued", c.issued),
            ("txns", c.txns),
            ("retries", c.retries),
            ("throttled", c.throttled),
            ("lock_latency_samples", c.lock_latency.count),
            ("events_fired", n.events_fired),
            ("timers_fired", n.timers_fired),
            ("packets_delivered", n.packets_delivered),
            ("max_queue_depth", n.max_queue_depth),
            ("dp_passes", n.dp_passes),
            ("dp_grants_immediate", n.dp_grants_immediate),
            ("dp_grants_on_release", n.dp_grants_on_release),
            ("dp_forwarded_overflow", n.dp_forwarded_overflow),
            ("server_processed", n.server_processed),
            ("lock_table_entries", n.lock_table_entries),
        ]
    }
}

/// Zero the client counters, run the measured window under the clock,
/// and collect. The scenario must already be warmed up.
fn measure(scenario: &mut Scenario, measure_us: u64, spans: &mut Spans, span: &str) -> Window {
    scenario.reset_clients();
    let before = scenario.cumulative();
    let s = spans.enter(span);
    let t = Instant::now();
    let mut slice_secs = Vec::with_capacity(SLICES as usize);
    let mut done_us = 0;
    for i in 1..=SLICES {
        let upto_us = measure_us * i / SLICES;
        let slice = Instant::now();
        scenario.run_for_us(upto_us - done_us);
        slice_secs.push(slice.elapsed().as_secs_f64());
        done_us = upto_us;
    }
    let wall_s = t.elapsed().as_secs_f64();
    spans.exit(s);
    Window {
        measure_us,
        wall_s,
        slice_secs,
        client: scenario.collect(measure_us),
        counts: scenario.cumulative().since(&before),
        table_entries_start: before.lock_table_entries,
        node_count: scenario.node_count(),
    }
}

/// The window measured `reps` times over.
struct Timed {
    /// The first repetition; the others simulated exactly the same.
    window: Window,
    /// Per slice, the fastest repetition. The box's noise only ever
    /// slows a slice (spells of a second or two, up to +60 %), never
    /// speeds it up, and every slice keeps its place in the sum, so a
    /// cost that grows along the window still counts in full.
    best_slice_secs: Vec<f64>,
    walls: Vec<f64>,
    setup_samples: Vec<f64>,
    /// `VmHWM` when the first repetition's window ended.
    rss_mb: f64,
    /// Acquires ungranted one lease after the generators stopped.
    ungranted: Option<u64>,
}

impl Timed {
    /// The run's result, given the metrics of its mode and what the
    /// oracle pass found.
    fn into_result(
        self,
        args: RunArgs,
        metrics: Vec<(&'static MetricDef, f64)>,
        violations: u64,
        checks: Vec<Check>,
        spans: Spans,
    ) -> RunResult {
        let c = &self.window.client;
        RunResult {
            args,
            attempted: attempted(c),
            failed: c.retries + c.reclaimed + self.ungranted.unwrap_or(0) + violations,
            metrics,
            sim_digest: self.window.digest(),
            sim_counts: self.window.sim_counts(),
            checks,
            spans,
            setup_samples: self.setup_samples,
            slice_secs: self.best_slice_secs,
            wall_s: self.walls,
        }
    }

    /// Wall-clock of the window with every slice at its fastest.
    fn steady_wall_s(&self) -> f64 {
        self.best_slice_secs.iter().sum()
    }

    /// `host_grants_per_s`.
    fn grants_per_s(&self) -> f64 {
        self.window.client.grants as f64 / self.steady_wall_s()
    }
}

/// Set up and measure the window `reps` times, untapped, checking the
/// first repetition's conservation laws and that the others repeat it
/// exactly. The first set-up is timed from `first_from`. One instance
/// is alive at a time, so peak RSS is one instance's.
fn timed_reps(
    args: &RunArgs,
    reps: usize,
    first_from: Instant,
    spans: &mut Spans,
    checks: &mut Vec<Check>,
) -> Timed {
    let measure_us = args.spec.measure_us(args.seconds);
    let one_rep = |from: Instant, spans: &mut Spans| {
        let (mut scenario, _) = set_up(args, measure_us, Tap::None, spans);
        let setup_s = from.elapsed().as_secs_f64();
        let window = measure(&mut scenario, measure_us, spans, "run.measure");
        (scenario, setup_s, window)
    };

    let (mut scenario, setup_s, window) = one_rep(first_from, spans);
    // Read here, with one instance's life behind the process: later
    // repetitions reuse freed memory less tidily and push VmHWM up by
    // 0 to 12 %, differently from process to process.
    let rss_mb = peak_rss_mb().unwrap_or(0.0);
    check_window(checks, &window);
    let ungranted = spanned(spans, "run.drain", || scenario.drain_ungranted());
    drop(scenario);
    check(
        checks,
        "nothing_ungranted_after_drain",
        ungranted.unwrap_or(0) == 0,
        format!("{ungranted:?} acquires ungranted one lease ({LEASE_US} us) after the generators stopped"),
    );
    let mut timed = Timed {
        best_slice_secs: window.slice_secs.clone(),
        walls: vec![window.wall_s],
        setup_samples: vec![setup_s],
        rss_mb,
        ungranted,
        window,
    };
    let digest = timed.window.digest();
    for rep in 1..reps {
        let (_, setup_s, again) = one_rep(Instant::now(), spans);
        check(
            checks,
            "window_repeats_exactly",
            again.digest() == digest,
            format!(
                "repetition {rep}: sim digest {:016x} vs {digest:016x}",
                again.digest()
            ),
        );
        for (best, secs) in timed.best_slice_secs.iter_mut().zip(&again.slice_secs) {
            *best = best.min(*secs);
        }
        timed.walls.push(again.wall_s);
        timed.setup_samples.push(setup_s);
    }
    timed
}

/// What a set-up puts on the simulator's tap.
#[derive(Clone, Copy)]
enum Tap {
    None,
    /// Capture up to this many delivered packets and count the
    /// window's messages.
    Capture(usize),
    Oracle,
}

/// Build and warm up one instance under a `setup` span; `measure_us`
/// is the window the caller will run next.
fn set_up(
    args: &RunArgs,
    measure_us: u64,
    tap: Tap,
    spans: &mut Spans,
) -> (Scenario, Option<adapter::Trace>) {
    let s = spans.enter("setup");
    let mut scenario = Scenario::build(args.spec, args.seed, measure_us, spans);
    let trace = match tap {
        Tap::None => None,
        Tap::Capture(cap) => Some(scenario.attach_trace(cap, false)),
        Tap::Oracle => Some(scenario.attach_trace(0, true)),
    };
    let w = spans.enter("setup.warmup");
    scenario.run_for_us(args.spec.warmup_us);
    spans.exit(w);
    spans.exit(s);
    (scenario, trace)
}

fn check(checks: &mut Vec<Check>, name: &'static str, ok: bool, detail: String) {
    checks.push(Check { name, ok, detail });
}

/// Conservation checks on a measured window: what the clients, the
/// switch, the servers and the simulator each counted must agree.
fn check_window(checks: &mut Vec<Check>, w: &Window) {
    let (c, n) = (&w.client, &w.counts);
    check(
        checks,
        "grants_positive",
        c.grants > 0,
        format!("grants = {}", c.grants),
    );
    check(
        checks,
        "every_grant_has_a_latency_sample",
        c.lock_latency.count == c.grants,
        format!("{} samples vs {} grants", c.lock_latency.count, c.grants),
    );
    check(
        checks,
        "grants_split_by_grantor",
        c.grants_switch + c.grants_server == c.grants,
        format!("{} + {} vs {}", c.grants_switch, c.grants_server, c.grants),
    );
    check(
        checks,
        "fired_events_are_packets_or_timers",
        n.packets_delivered + n.timers_fired == n.events_fired,
        format!(
            "{} + {} vs {}",
            n.packets_delivered, n.timers_fired, n.events_fired
        ),
    );
    check(
        checks,
        "no_packet_lost_or_dropped",
        n.packets_lost == 0 && n.switch_drops == 0 && n.dp_quota_drops == 0,
        format!(
            "lost {} switch drops {} quota drops {}",
            n.packets_lost, n.switch_drops, n.dp_quota_drops
        ),
    );
    check(
        checks,
        "no_lease_expired",
        n.switch_lease_expirations == 0,
        format!("{} forced releases", n.switch_lease_expirations),
    );
    // Each transaction's latency is recorded when it completes.
    check(
        checks,
        "every_txn_has_a_latency_sample",
        c.txn_latency.count == c.txns,
        format!("{} samples vs {} txns", c.txn_latency.count, c.txns),
    );
}

/// Acquires sent in the window: open-loop clients count them; a
/// closed-loop worker sends one per grant it consumes plus its
/// retransmissions.
fn attempted(c: &ClientSide) -> u64 {
    if c.issued > 0 {
        c.issued
    } else {
        c.grants + c.retries
    }
}

/// The oracle pass behind `correct`: the same scenario and seed over a
/// short window with the lock-safety oracle on the tap, drained like a
/// timed window so the oracle's end-of-run checks see every request
/// answered. The oracle remembers every grant and formats every
/// message it sees (10x to 50x the untapped wall-clock), which is why
/// it gets a window of its own instead of riding on the timed one.
fn verify_with_oracle(args: &RunArgs, spans: &mut Spans, checks: &mut Vec<Check>) -> u64 {
    let s = spans.enter("verify.oracle");
    let verify_us = args.spec.verify_us(args.seconds);
    let (mut scenario, trace) = set_up(args, verify_us, Tap::Oracle, spans);
    scenario.run_for_us(verify_us);
    scenario.drain_ungranted();
    let seen = trace.expect("tapped set-up").finish(scenario.now_ns());
    let (violations, details) = (seen.violations, seen.details);
    spans.exit(s);
    check(
        checks,
        "oracle_clean",
        violations == 0,
        format!("{violations} violations {details:?}"),
    );
    violations
}

fn lat_us(d: &adapter::Dist, q: f64) -> f64 {
    quantile(&d.cum, d.min_ns, d.max_ns, q) / 1e3
}

/// A timed run (`--trace 0`): the window `WINDOW_REPS` times with no
/// tap installed, a short oracle pass, and a few more set-ups.
fn run_timed(args: RunArgs, process_start: Instant) -> RunResult {
    let mut spans = Spans::new(process_start);
    let root = spans.enter("run");
    let mut checks = Vec::new();
    let mut timed = timed_reps(&args, WINDOW_REPS, process_start, &mut spans, &mut checks);
    let violations = verify_with_oracle(&args, &mut spans, &mut checks);
    for _ in 0..EXTRA_SETUPS {
        let t = Instant::now();
        drop(set_up(
            &args,
            timed.window.measure_us,
            Tap::None,
            &mut spans,
        ));
        timed.setup_samples.push(t.elapsed().as_secs_f64());
    }
    spans.exit(root);

    let w = &timed.window;
    let values = [
        median(&mut timed.setup_samples.clone()),
        timed.grants_per_s(),
        timed.rss_mb,
        w.client.grants as f64 / w.sim_s() / 1e6,
        lat_us(&w.client.lock_latency, 0.5),
        lat_us(&w.client.lock_latency, 0.999),
    ];
    let metrics = END_TO_END.iter().zip(values).collect();
    timed.into_result(args, metrics, violations, checks, spans)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Run `f` under a span.
fn spanned<T>(spans: &mut Spans, name: &str, f: impl FnOnce() -> T) -> T {
    let s = spans.enter(name);
    let out = f();
    spans.exit(s);
    out
}

/// What the traced run's tapped windows found.
struct Traced {
    /// Tapped / untapped wall-clock: median over the slices, each
    /// against its fastest untapped repetition.
    overhead_ratio: f64,
    tap: TraceCounts,
    violations: u64,
    captured: Captured,
}

/// The replay probes and the ledger, from the traced run's windows.
fn per_layer(
    args: &RunArgs,
    scenario: &Scenario,
    timed: &Timed,
    traced: &Traced,
    spans: &mut Spans,
    checks: &mut Vec<Check>,
) -> Vec<(&'static str, f64)> {
    let wall_s = timed.steady_wall_s();
    let ungranted = timed.ungranted.unwrap_or(0);
    let timed = &timed.window;
    let (c, n) = (&timed.client, &timed.counts);
    let (tap, cap) = (&traced.tap, &traced.captured);
    let events = n.events_fired as f64;
    let grants = c.grants as f64;
    let wall_ns = wall_s * 1e9;

    let queue_ns = spanned(spans, "probe.sim.queue", || {
        adapter::probe_queue(cap, n.max_queue_depth)
    });
    let spine_ns = spanned(spans, "probe.sim.spine", || {
        adapter::probe_spine(timed.node_count, n.max_queue_depth)
    });
    let hist_ns = spanned(spans, "probe.sim.metrics", || adapter::probe_histogram(cap));
    let dp = spanned(spans, "probe.switch.dataplane", || {
        scenario.probe_dataplane(cap)
    });
    let prio = spanned(spans, "probe.switch.priority", || {
        scenario.probe_priority(cap)
    });
    let lowered_ns = spanned(spans, "probe.switch.txn", || {
        adapter::probe_lowered_txn(cap)
    });
    let knapsack_ms = spanned(spans, "probe.switch.control", || {
        scenario.probe_knapsack_ms()
    });
    let table = spanned(spans, "probe.server.lock_table", || {
        adapter::probe_lock_table(cap)
    });
    let (tpcc_ns, tpcc_locks) = match args.spec.shape {
        Shape::Tpcc { clients, .. } => spanned(spans, "probe.workloads.tpcc", || {
            adapter::probe_tpcc(clients, 200_000)
        }),
        _ => (0.0, 0.0),
    };
    let (codec_ns, codec_intact) =
        spanned(spans, "probe.proto.codec", || adapter::probe_codec(cap));
    let (w1_over_fused, speedup_w2) = match args.spec.shape {
        Shape::Micro { racks, .. } if racks > 1 => spanned(spans, "probe.sim.par", || {
            adapter::probe_par(args.spec, args.seed, (timed.measure_us / 8).max(100), 3)
        }),
        _ => (0.0, None),
    };
    check(
        checks,
        "codec_round_trip_intact",
        codec_intact,
        "every captured message survives encode_msg + decode_msg".into(),
    );

    // The ledger: each probe's cost times the number of times the
    // timed window did that work (counted at the tap of the identical
    // traced window), against the timed wall-clock.
    let acquires = (n.dp_grants_immediate
        + n.dp_queued
        + n.dp_forwarded_server_locks
        + n.dp_forwarded_overflow
        + n.dp_quota_drops) as f64;
    let spine_share = ratio(spine_ns * events, wall_ns);
    let dp_share = ratio(dp.ns_per_pkt * tap.switch_ops as f64, wall_ns);
    // Every sweep tick each server walks its whole table; the tables
    // grow roughly linearly over the window.
    let sweeps = (timed.measure_us / adapter::SERVER_SWEEP_TICK_US) as f64;
    let swept_entries = sweeps * (timed.table_entries_start + n.lock_table_entries) as f64 / 2.0;
    let sweep_share = ratio(table.sweep_ns_per_entry * swept_entries, wall_ns);
    let table_share = ratio(table.ns_per_msg * tap.table_ops as f64, wall_ns) + sweep_share;
    let tpcc_share = ratio(tpcc_ns * c.txns as f64, wall_ns);
    let hist_share = ratio(hist_ns * (c.grants + c.txns) as f64, wall_ns);
    let attributed = spine_share + dp_share + table_share + tpcc_share + hist_share;
    let slots = (c.issued + c.throttled) as f64;
    let fail = (c.retries + c.reclaimed + c.throttled + ungranted) as f64;
    let span_ms = |name: &str| {
        spans
            .all()
            .iter()
            .find(|s| s.name == name)
            .map_or(0.0, |s| (s.end_ns - s.start_ns) as f64 / 1e6)
    };

    vec![
        ("sim_lock_samples", c.lock_latency.count as f64),
        ("sim_txn_ktps", c.txns as f64 / timed.sim_s() / 1e3),
        ("sim_txn_p50_us", lat_us(&c.txn_latency, 0.5)),
        ("sim_txn_p999_us", lat_us(&c.txn_latency, 0.999)),
        ("sim_txn_samples", c.txn_latency.count as f64),
        ("fail_share", ratio(fail, slots.max(attempted(c) as f64))),
        ("setup.alloc_ms", span_ms("setup.alloc")),
        ("setup.build_ms", span_ms("setup.build")),
        ("setup.warmup_ms", span_ms("setup.warmup")),
        ("sim.events_fired", events),
        ("sim.events_per_grant", ratio(events, grants)),
        ("sim.timers_share", ratio(n.timers_fired as f64, events)),
        ("sim.max_queue_depth", n.max_queue_depth as f64),
        ("sim.host_events_per_s", ratio(events, wall_s)),
        ("sim.queue.ns_per_event", queue_ns),
        ("sim.spine.ns_per_event", spine_ns),
        ("sim.spine.share", spine_share),
        ("sim.metrics.ns_per_record", hist_ns),
        ("sim.metrics.share", hist_share),
        ("sim.par.w1_over_fused", w1_over_fused),
        ("sim.par.speedup_w2", speedup_w2.unwrap_or(0.0)),
        ("switch.dataplane.ns_per_pkt", dp.ns_per_pkt),
        ("switch.dataplane.allocs_per_pkt", dp.allocs_per_pkt),
        ("switch.dataplane.share", dp_share),
        (
            "switch.dataplane.passes_per_pkt",
            ratio(n.dp_passes as f64, tap.switch_ops as f64),
        ),
        (
            "switch.dataplane.immediate_share",
            ratio(n.dp_grants_immediate as f64, acquires),
        ),
        (
            "switch.dataplane.on_release_share",
            ratio(n.dp_grants_on_release as f64, acquires),
        ),
        (
            "switch.dataplane.forwarded_share",
            ratio(n.dp_forwarded_server_locks as f64, acquires),
        ),
        (
            "switch.dataplane.overflow_share",
            ratio(n.dp_forwarded_overflow as f64, acquires),
        ),
        ("switch.priority.ns_per_pkt", prio.ns_per_pkt),
        ("switch.txn.lowered_ns_per_pkt", lowered_ns),
        ("switch.control.knapsack_ms", knapsack_ms),
        ("switch.grant_share", ratio(c.grants_switch as f64, grants)),
        ("server.lock_table.ns_per_msg", table.ns_per_msg),
        (
            "server.lock_table.sweep_ns_per_entry",
            table.sweep_ns_per_entry,
        ),
        ("server.lock_table.sweep_share", sweep_share),
        ("server.lock_table.share", table_share),
        ("server.lock_table.entries_end", n.lock_table_entries as f64),
        (
            "server.msgs_per_grant",
            ratio(n.server_processed as f64, grants),
        ),
        (
            "server.busy_share",
            ratio(
                n.server_busy_ns as f64,
                n.server_cores as f64 * timed.measure_us as f64 * 1e3,
            ),
        ),
        ("server.q2_peak_depth", n.server_q2_peak_depth as f64),
        ("workloads.tpcc.ns_per_txn", tpcc_ns),
        ("workloads.tpcc.locks_per_txn", tpcc_locks),
        ("workloads.tpcc.share", tpcc_share),
        (
            "core.client.retries_per_grant",
            ratio(c.retries as f64, grants),
        ),
        (
            "core.client.throttled_share",
            ratio(c.throttled as f64, slots),
        ),
        (
            "core.population.requests_per_batch",
            ratio(c.issued as f64, c.batches_sent as f64),
        ),
        ("proto.codec.roundtrip_ns_per_msg", codec_ns),
        ("proto.packet_bytes", adapter::packet_bytes() as f64),
        (
            "core.residual.ns_per_event",
            ratio(wall_ns, events) * (1.0 - attributed),
        ),
        ("core.residual.share", 1.0 - attributed),
        ("ledger.attributed_share", attributed),
        ("trace.overhead_ratio", traced.overhead_ratio),
        ("trace.captured_events", cap.len() as f64),
        ("trace.oracle_violations", traced.violations as f64),
        ("trace.host_grants_per_s", ratio(grants, wall_s)),
        ("trace.window_us_sim", timed.measure_us as f64),
    ]
}

/// A traced run (`--trace 1`): the window untapped (the timing
/// baseline, `WINDOW_REPS - 1` times), once with the capture tap, a
/// short oracle pass, then the probes on what the tap captured.
fn run_traced(args: RunArgs, process_start: Instant) -> RunResult {
    let mut spans = Spans::new(process_start);
    let root = spans.enter("run");
    let mut checks = Vec::new();
    let timed = timed_reps(
        &args,
        WINDOW_REPS - 1,
        process_start,
        &mut spans,
        &mut checks,
    );
    let measure_us = timed.window.measure_us;

    let s = spans.enter("traced");
    let (mut scenario, trace) = set_up(
        &args,
        measure_us,
        Tap::Capture(args.capture_cap),
        &mut spans,
    );
    let trace = trace.expect("tapped set-up");
    trace.start_counting();
    let tapped = measure(&mut scenario, measure_us, &mut spans, "run.measure.traced");
    let seen = trace.finish(scenario.now_ns());
    spans.exit(s);
    check(
        &mut checks,
        "traced_window_equals_untraced",
        tapped.digest() == timed.window.digest(),
        format!(
            "sim digest {:016x} traced vs {:016x} untraced",
            tapped.digest(),
            timed.window.digest()
        ),
    );
    let violations = verify_with_oracle(&args, &mut spans, &mut checks);
    let mut slice_ratios: Vec<f64> = tapped
        .slice_secs
        .iter()
        .zip(&timed.best_slice_secs)
        .map(|(tapped, untapped)| tapped / untapped)
        .collect();
    let traced = Traced {
        overhead_ratio: median(&mut slice_ratios),
        tap: seen.counts,
        violations,
        captured: seen.captured,
    };

    let s = spans.enter("probes");
    let values = per_layer(&args, &scenario, &timed, &traced, &mut spans, &mut checks);
    spans.exit(s);
    spans.exit(root);

    let metrics = PER_LAYER
        .iter()
        .map(|def| {
            let v = values
                .iter()
                .find(|(name, _)| *name == def.name)
                .unwrap_or_else(|| panic!("per-layer metric {} not computed", def.name));
            (def, v.1)
        })
        .collect();
    timed.into_result(args, metrics, violations, checks, spans)
}

/// Run once, timed or traced.
pub fn run(args: RunArgs, process_start: Instant) -> RunResult {
    if args.trace {
        run_traced(args, process_start)
    } else {
        run_timed(args, process_start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    fn tiny(workload: &str, trace: bool) -> RunResult {
        let args = RunArgs {
            spec: workloads::find(workload).unwrap(),
            seed: 3,
            seconds: 0.02,
            trace,
            capture_cap: 20_000,
        };
        run(args, Instant::now())
    }

    fn failed(r: &RunResult) -> Vec<&Check> {
        r.checks.iter().filter(|c| !c.ok).collect()
    }

    #[test]
    fn timed_runs_are_correct_and_repeat_exactly() {
        let a = tiny("micro_excl_hot500", false);
        let b = tiny("micro_excl_hot500", false);
        assert!(a.correct(), "{:?}", failed(&a));
        assert_eq!(a.sim_digest, b.sim_digest);
        assert_eq!(a.sim_counts, b.sim_counts);
        assert_eq!(a.failed, 0);
        assert!(a.attempted > 0);
        assert_eq!(a.setup_samples.len(), WINDOW_REPS + EXTRA_SETUPS);
        assert_eq!(a.slice_secs.len(), SLICES as usize);
        let names: Vec<_> = a.metrics.iter().map(|(m, _)| m.name).collect();
        assert_eq!(names, END_TO_END.map(|m| m.name));
        for (m, v) in &a.metrics {
            assert!(v.is_finite() && *v > 0.0, "{} = {v}", m.name);
        }
    }

    #[test]
    fn traced_run_reports_every_layer_metric_and_checks_the_oracle() {
        let r = tiny("tpcc_mem_limited", true);
        assert!(r.correct(), "{:?}", failed(&r));
        assert!(r.checks.iter().any(|c| c.name == "oracle_clean"));
        assert!(r
            .checks
            .iter()
            .any(|c| c.name == "traced_window_equals_untraced"));
        let names: Vec<_> = r.metrics.iter().map(|(m, _)| m.name).collect();
        assert_eq!(names, PER_LAYER.map(|m| m.name));
        for (m, v) in &r.metrics {
            assert!(v.is_finite() && *v >= 0.0, "{} = {v}", m.name);
        }
        let span_names: Vec<_> = r.spans.all().iter().map(|s| s.name.as_str()).collect();
        for want in [
            "setup.alloc",
            "setup.build",
            "setup.warmup",
            "run.measure",
            "probe.switch.dataplane",
        ] {
            assert!(
                span_names.contains(&want),
                "{want} missing from {span_names:?}"
            );
        }
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let r = tiny("population_burst", false);
        let line = r.contract_line();
        assert!(!line.contains('\n'));
        let json = Json::parse(&line).unwrap();
        let keys: Vec<_> = json
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = json.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
        assert!(setup.get("value").unwrap().as_f64().unwrap() > 0.0);
    }
}
