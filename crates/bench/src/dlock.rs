//! Real-threads delegation sweep over the `netlock-dlock` backends.
//!
//! The simulation charges the paper's 222 ns/message for server CPU;
//! this harness *measures* what the actual `server::LockTable` costs on
//! this machine's cores, and how that cost scales when many threads
//! contend for it through three concurrency-control strategies
//! (`mutex`, `flat_combining`, `ccsynch` — see the `netlock-dlock`
//! crate docs). The sweep axes:
//!
//! - **threads** — 1..max (the delegation payoff appears past 2);
//! - **contention** — `hot` (Zipf θ=0.99 over 64 locks, the paper's
//!   extreme-contention shape) vs `uniform` (4096 locks);
//! - **mix** — `excl` (all exclusive) vs `mixed` (50% shared);
//! - **cs_spins** — extra serial work per op while the table is held,
//!   the critical-section-length axis of the flat-combining paper.
//!
//! Each point reports throughput (M ops/s) and per-op latency
//! (mean/p50/p99 of the `run()` round-trip, i.e. delegation cost — not
//! lock-wait time; queued verdicts return immediately). The
//! single-thread sequential table cost is reported separately as
//! `seq_lock_table_ns_per_op`, to set beside the 222 ns/message the
//! simulation charges by default (`netlock_server::ServerConfig::service`).

use std::time::Instant;

use netlock_dlock::{CcSynch, ConcurrentLockTable, FlatCombining, LockOp, MutexTable};
use netlock_proto::{ClientAddr, LockId, LockMode, LockRequest, Priority, TenantId, TxnId};
use netlock_server::{LockTable, TableAcquire};
use netlock_sim::{Histogram, SimRng};
use netlock_workloads::Zipf;

use crate::report::Json;

/// Hot-key lock-space size (the paper's extreme-contention shape).
pub const HOT_LOCKS: usize = 64;
/// Zipf skew for the hot distribution.
pub const HOT_THETA: f64 = 0.99;
/// Uniform lock-space size.
pub const UNIFORM_LOCKS: usize = 4096;
/// A thread releases once it holds this many locks, so hold counts stay
/// bounded and acquire/release traffic stays ~balanced.
const MAX_HELD: usize = 2;

/// Which backend a point measures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Backend {
    /// `Mutex<LockTable>` baseline.
    Mutex,
    /// Flat combining.
    FlatCombining,
    /// CCSynch-style queue delegation.
    CcSynch,
}

impl Backend {
    /// All backends, baseline first.
    pub const ALL: [Backend; 3] = [Backend::Mutex, Backend::FlatCombining, Backend::CcSynch];

    /// Stable report label.
    pub fn label(self) -> &'static str {
        match self {
            Backend::Mutex => "mutex",
            Backend::FlatCombining => "flat_combining",
            Backend::CcSynch => "ccsynch",
        }
    }
}

/// Lock-id distribution of a point.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Dist {
    /// Zipf θ=0.99 over [`HOT_LOCKS`].
    Hot,
    /// Uniform over [`UNIFORM_LOCKS`].
    Uniform,
}

impl Dist {
    /// Stable report label.
    pub fn label(self) -> &'static str {
        match self {
            Dist::Hot => "hot",
            Dist::Uniform => "uniform",
        }
    }
}

/// Shared/exclusive mix of a point.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mix {
    /// All acquires exclusive.
    Exclusive,
    /// 50% shared, 50% exclusive.
    Mixed,
}

impl Mix {
    /// Stable report label.
    pub fn label(self) -> &'static str {
        match self {
            Mix::Exclusive => "excl",
            Mix::Mixed => "mixed",
        }
    }

    fn shared_prob(self) -> f64 {
        match self {
            Mix::Exclusive => 0.0,
            Mix::Mixed => 0.5,
        }
    }
}

/// One sweep point: a backend under one workload shape.
#[derive(Clone, Copy, Debug)]
pub struct PointSpec {
    /// The backend under test.
    pub backend: Backend,
    /// Worker threads.
    pub threads: usize,
    /// Lock-id distribution.
    pub dist: Dist,
    /// Shared/exclusive mix.
    pub mix: Mix,
    /// Critical-section padding (serial spins per op inside the table).
    pub cs_spins: u32,
    /// Measured ops per thread.
    pub ops_per_thread: usize,
    /// Untimed warmup ops per thread.
    pub warmup_per_thread: usize,
}

/// Measured outcome of one point.
#[derive(Clone, Copy, Debug)]
pub struct PointResult {
    /// The spec this measures.
    pub spec: PointSpec,
    /// Total measured ops across threads.
    pub ops: u64,
    /// Wall-clock seconds of the slowest thread's measured loop.
    pub secs: f64,
    /// Mean per-op latency (ns).
    pub mean_ns: f64,
    /// Median per-op latency (ns).
    pub p50_ns: u64,
    /// 99th-percentile per-op latency (ns).
    pub p99_ns: u64,
}

impl PointResult {
    /// Throughput in million ops per second.
    pub fn mops(&self) -> f64 {
        self.ops as f64 / self.secs.max(1e-12) / 1e6
    }

    /// The TSV row for this point.
    pub fn tsv(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{:.4}\t{:.3}\t{:.1}\t{}\t{}",
            self.spec.backend.label(),
            self.spec.threads,
            self.spec.dist.label(),
            self.spec.mix.label(),
            self.spec.cs_spins,
            self.ops,
            self.secs,
            self.mops(),
            self.mean_ns,
            self.p50_ns,
            self.p99_ns,
        )
    }

    /// The header matching [`PointResult::tsv`].
    pub fn tsv_header() -> &'static str {
        "backend\tthreads\tdist\tmix\tcs_spins\tops\tsecs\tmops\tmean_ns\tp50_ns\tp99_ns"
    }

    /// The JSON object for this point.
    pub fn json(&self) -> Json {
        Json::obj([
            ("threads", Json::Int(self.spec.threads as u64)),
            ("dist", Json::str(self.spec.dist.label())),
            ("mix", Json::str(self.spec.mix.label())),
            ("cs_spins", Json::Int(self.spec.cs_spins as u64)),
            ("ops", Json::Int(self.ops)),
            ("secs", Json::Num(self.secs)),
            ("mops", Json::Num(self.mops())),
            ("mean_ns", Json::Num(self.mean_ns)),
            ("p50_ns", Json::Int(self.p50_ns)),
            ("p99_ns", Json::Int(self.p99_ns)),
        ])
    }
}

/// Run one sweep point.
pub fn run_point(spec: PointSpec) -> PointResult {
    match spec.backend {
        Backend::Mutex => drive(&MutexTable::new(spec.threads, spec.cs_spins), spec),
        Backend::FlatCombining => drive(&FlatCombining::new(spec.threads, spec.cs_spins), spec),
        Backend::CcSynch => drive(&CcSynch::new(spec.threads, spec.cs_spins), spec),
    }
}

/// One worker's loop: acquire fresh locks until [`MAX_HELD`] are held,
/// then release the oldest; grants promoted by our releases are adopted
/// into our held list (whoever receives the grant owns the release), so
/// grant/release conservation holds without cross-thread signaling.
fn worker<T: ConcurrentLockTable>(
    backend: &T,
    spec: &PointSpec,
    zipf: Option<&Zipf>,
    tid: usize,
) -> (f64, Histogram) {
    let mut rng = SimRng::new(0xD10C ^ ((tid as u64) << 32) ^ spec.cs_spins as u64);
    let mut held: Vec<(LockId, TxnId)> = Vec::new();
    let mut buf: Vec<LockRequest> = Vec::new();
    let mut hist = Histogram::new();
    let mut seq = 0u64;
    let mut elapsed = 0.0f64;
    for phase in 0..2 {
        let (ops, timed) = if phase == 0 {
            (spec.warmup_per_thread, false)
        } else {
            (spec.ops_per_thread, true)
        };
        let t0 = Instant::now();
        for _ in 0..ops {
            let op = if held.len() >= MAX_HELD {
                let (lock, txn) = held.remove(0);
                LockOp::Release { lock, txn }
            } else {
                let lock = match zipf {
                    Some(z) => z.sample(&mut rng) as u32,
                    None => rng.index(UNIFORM_LOCKS) as u32,
                };
                let mode = if rng.chance(spec.mix.shared_prob()) {
                    LockMode::Shared
                } else {
                    LockMode::Exclusive
                };
                seq += 1;
                LockOp::Acquire(LockRequest {
                    lock: LockId(lock),
                    mode,
                    txn: TxnId(((tid as u64 + 1) << 40) | seq),
                    client: ClientAddr(tid as u32 + 1),
                    tenant: TenantId(0),
                    priority: Priority(0),
                    issued_at_ns: seq,
                })
            };
            let t = Instant::now();
            let resp = backend.run(tid, op, buf);
            if timed {
                hist.record(t.elapsed().as_nanos() as u64);
            }
            if let LockOp::Acquire(req) = op {
                if resp.acquired == Some(TableAcquire::Granted) {
                    held.push((req.lock, req.txn));
                }
            }
            held.extend(resp.grants.iter().map(|g| (g.lock, g.txn)));
            buf = resp.grants;
        }
        if timed {
            elapsed = t0.elapsed().as_secs_f64();
        }
    }
    // Drain: release everything we hold (adopting any promotions those
    // releases trigger) so no thread exits leaving peers queued forever.
    while let Some((lock, txn)) = held.pop() {
        let resp = backend.run(tid, LockOp::Release { lock, txn }, buf);
        held.extend(resp.grants.iter().map(|g| (g.lock, g.txn)));
        buf = resp.grants;
    }
    (elapsed, hist)
}

fn drive<T: ConcurrentLockTable>(backend: &T, spec: PointSpec) -> PointResult {
    let zipf = match spec.dist {
        Dist::Hot => Some(Zipf::new(HOT_LOCKS, HOT_THETA)),
        Dist::Uniform => None,
    };
    let results: Vec<(f64, Histogram)> = std::thread::scope(|s| {
        let zipf = zipf.as_ref();
        let spec = &spec;
        let handles: Vec<_> = (0..spec.threads)
            .map(|tid| s.spawn(move || worker(backend, spec, zipf, tid)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut hist = Histogram::new();
    let mut secs = 0.0f64;
    for (elapsed, h) in &results {
        secs = secs.max(*elapsed);
        hist.merge(h);
    }
    PointResult {
        spec,
        ops: hist.count(),
        secs,
        mean_ns: hist.mean(),
        p50_ns: hist.quantile(0.5),
        p99_ns: hist.quantile(0.99),
    }
}

/// Sequential `LockTable` cost in ns per *message* (an acquire or a
/// release), cycling acquire+release pairs over the same 64 locks: the
/// entry is re-created in a warm map slot from a warm spare state every
/// round. The report writes it as `seq_lock_table_ns_per_op`; a
/// simulation that should charge it sets `ServerConfig::service`.
pub fn seq_lock_table_ns_per_message(rounds: usize) -> f64 {
    let mut table = LockTable::new();
    let mut grants: Vec<LockRequest> = Vec::new();
    let req = |lock: u32, txn: u64| LockRequest {
        lock: LockId(lock),
        mode: LockMode::Exclusive,
        txn: TxnId(txn),
        client: ClientAddr(1),
        tenant: TenantId(0),
        priority: Priority(0),
        issued_at_ns: txn,
    };
    let mut cycle = |lock: u32, txn: u64| {
        table.acquire(req(lock, txn));
        grants.clear();
        table.release(LockId(lock), TxnId(txn), &mut grants);
        grants.len()
    };
    for lock in 0..64u32 {
        cycle(lock, u64::from(lock));
    }
    let t = Instant::now();
    let mut acc = 0usize;
    for i in 64..64 + rounds {
        acc += cycle((i % 64) as u32, i as u64);
    }
    let elapsed = t.elapsed().as_nanos() as f64;
    std::hint::black_box(acc);
    elapsed / (2 * rounds) as f64
}

/// The thread counts a sweep uses: doubling from 1 up to `max`.
pub fn thread_counts(max: usize) -> Vec<usize> {
    let mut counts = Vec::new();
    let mut t = 1;
    while t <= max {
        counts.push(t);
        t *= 2;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_runs_and_reports() {
        for backend in Backend::ALL {
            let spec = PointSpec {
                backend,
                threads: 2,
                dist: Dist::Hot,
                mix: Mix::Mixed,
                cs_spins: 0,
                ops_per_thread: 2_000,
                warmup_per_thread: 200,
            };
            let r = run_point(spec);
            assert_eq!(
                r.ops,
                4_000,
                "{}: all measured ops counted",
                backend.label()
            );
            assert!(r.secs > 0.0);
            assert!(r.mean_ns > 0.0);
            assert!(r.p99_ns >= r.p50_ns);
            let row = r.tsv();
            assert_eq!(
                row.split('\t').count(),
                PointResult::tsv_header().split('\t').count(),
                "row/header column mismatch: {row}"
            );
        }
    }

    #[test]
    fn seq_cost_is_positive_and_sane() {
        let ns = seq_lock_table_ns_per_message(20_000);
        assert!(ns > 0.0 && ns < 100_000.0, "ns/message = {ns}");
    }

    #[test]
    fn thread_count_ladder() {
        assert_eq!(thread_counts(1), vec![1]);
        assert_eq!(thread_counts(2), vec![1, 2]);
        assert_eq!(thread_counts(8), vec![1, 2, 4, 8]);
        assert_eq!(thread_counts(6), vec![1, 2, 4]);
    }
}
