//! Property-based equivalence of the concurrent backends against the
//! sequential `LockTable`, checked two ways:
//!
//! 1. **Linearization replay.** Random multi-threaded op schedules run
//!    through each [`ConcurrentLockTable`] backend on real threads; the
//!    per-op `apply_seq` values must form a permutation of the op count,
//!    and replaying the ops in that order through a fresh sequential
//!    table must reproduce every outcome (grant/queue verdicts and
//!    promotion lists) byte for byte.
//! 2. **Oracle audit.** The linearized grant/release history is
//!    synthesized into the wire events the simulation's lock-safety
//!    oracle (`netlock_core::oracle`) watches — Acquire sent, Grant
//!    delivered, Release sent — and the oracle must find no mutual-
//!    exclusion or conservation violation. This ties the real-threads
//!    backends to the exact safety checker the chaos suite trusts.
//!
//! A separate property pins the single-threaded case: one thread's
//! schedule through any backend must match the sequential table op for
//! op, including `apply_seq == submission index`.

use netlock_core::oracle::{Oracle, OracleConfig};
use netlock_dlock::{
    apply_sequential, CcSynch, ConcurrentLockTable, FlatCombining, LockOp, MutexTable,
};
use netlock_proto::{
    ClientAddr, GrantMsg, Grantor, LockId, LockMode, LockRequest, NetLockMsg, Priority,
    ReleaseRequest, TenantId, TxnId,
};
use netlock_server::{LockTable, TableAcquire};
use netlock_sim::{NodeId, Packet, SimTime, TapEvent};
use proptest::{any, prop, prop_oneof, proptest, ProptestConfig, Strategy};

/// A thread's schedule entry, fixed before the run. Releases refer to
/// the thread's own earlier acquire by index; at runtime the release
/// may be stale (the acquire still queued) — the table ignores it, and
/// the replay must agree.
#[derive(Clone, Copy, Debug)]
enum PlannedOp {
    Acquire { lock: u32, exclusive: bool },
    ReleaseEarlier { back: usize },
}

#[derive(Clone, Debug)]
struct Schedule {
    threads: Vec<Vec<PlannedOp>>,
}

fn schedule_strategy(max_threads: usize) -> impl Strategy<Value = Schedule> {
    (1usize..=max_threads)
        .prop_flat_map(|threads| {
            let op = prop_oneof![
                (0u32..5, any::<bool>())
                    .prop_map(|(lock, exclusive)| PlannedOp::Acquire { lock, exclusive }),
                (1usize..8).prop_map(|back| PlannedOp::ReleaseEarlier { back }),
            ];
            prop::collection::vec(prop::collection::vec(op, 1..40), threads..threads + 1)
        })
        .prop_map(|threads| Schedule { threads })
}

/// The log of one executed op: linearization position, the concrete op,
/// and the backend's response.
type OpLog = (u64, LockOp, Option<TableAcquire>, Vec<LockRequest>);

fn make_req(tid: usize, i: usize, lock: u32, exclusive: bool) -> LockRequest {
    let txn = ((tid as u64 + 1) << 32) | i as u64;
    LockRequest {
        lock: LockId(lock),
        mode: if exclusive {
            LockMode::Exclusive
        } else {
            LockMode::Shared
        },
        txn: TxnId(txn),
        client: ClientAddr(tid as u32 + 1),
        tenant: TenantId(0),
        priority: Priority(0),
        issued_at_ns: txn,
    }
}

/// Run `schedule` through `backend` on real threads and return the
/// merged, linearization-sorted op log.
fn execute<T: ConcurrentLockTable>(backend: &T, schedule: &Schedule) -> Vec<OpLog> {
    let logs: Vec<Vec<OpLog>> = std::thread::scope(|s| {
        let handles: Vec<_> = schedule
            .threads
            .iter()
            .enumerate()
            .map(|(tid, plan)| {
                s.spawn(move || {
                    let mut log: Vec<OpLog> = Vec::with_capacity(plan.len());
                    let mut acquires: Vec<LockRequest> = Vec::new();
                    let mut buf = Vec::new();
                    for (i, planned) in plan.iter().enumerate() {
                        let op = match *planned {
                            PlannedOp::Acquire { lock, exclusive } => {
                                let req = make_req(tid, i, lock, exclusive);
                                acquires.push(req);
                                LockOp::Acquire(req)
                            }
                            PlannedOp::ReleaseEarlier { back } => {
                                if acquires.is_empty() {
                                    // Nothing acquired yet: a stale
                                    // release of a never-used lock.
                                    LockOp::Release {
                                        lock: LockId(99),
                                        txn: TxnId(u64::MAX),
                                    }
                                } else {
                                    let idx = acquires.len().saturating_sub(back);
                                    let req = acquires[idx];
                                    LockOp::Release {
                                        lock: req.lock,
                                        txn: req.txn,
                                    }
                                }
                            }
                        };
                        let resp = backend.run(tid, op, buf);
                        log.push((resp.apply_seq, op, resp.acquired, resp.grants.clone()));
                        buf = resp.grants;
                    }
                    log
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut merged: Vec<OpLog> = logs.into_iter().flatten().collect();
    merged.sort_by_key(|(seq, _, _, _)| *seq);
    merged
}

/// Replay the linearized log through a fresh sequential table; panic on
/// any divergence. Returns the replay table for end-state checks.
fn assert_replay_matches(merged: &[OpLog]) -> LockTable {
    for (i, (seq, _, _, _)) in merged.iter().enumerate() {
        assert_eq!(
            *seq,
            i as u64,
            "apply_seq values are not a permutation of 0..{}",
            merged.len()
        );
    }
    let mut table = LockTable::new();
    let mut grants = Vec::new();
    for (seq, op, acquired, got_grants) in merged {
        let want = apply_sequential(&mut table, op, &mut grants, 0);
        assert_eq!(*acquired, want, "seq {seq}: verdict diverged for {op:?}");
        assert_eq!(
            got_grants, &grants,
            "seq {seq}: promotion list diverged for {op:?}"
        );
    }
    table
}

/// Feed the linearized history to the lock-safety oracle as synthesized
/// wire traffic and require a clean audit.
///
/// Time is `apply_seq`-derived so ordering is exact; the lease window is
/// effectively infinite (no hold ever expires, so mutual exclusion is
/// checked in its strictest form) and the leak/wedge windows are huge
/// (a schedule may legitimately end with locks held or requests
/// queued).
fn assert_oracle_clean(merged: &[OpLog]) {
    let mut oracle = Oracle::new(OracleConfig {
        lease_ns: u64::MAX / 4,
        stall_after_ns: u64::MAX / 4,
    });
    let manager = NodeId(0);
    // Client node ids mirror ClientAddr (tid + 1); register every one
    // that appears so the oracle can track its grants.
    for (_, op, _, _) in merged {
        if let LockOp::Acquire(req) = op {
            oracle.register_client(NodeId(req.client.0));
        }
    }
    // Replay through a shadow table to know which releases actually
    // removed a holder (stale releases are ignored by the table and
    // must not be fed to the oracle as wire releases — a real server
    // would not send a release for a lock it was never granted).
    let mut shadow = LockTable::new();
    let mut shadow_grants = Vec::new();
    for (seq, op, acquired, grants) in merged {
        let at = SimTime((seq + 1) * 1_000);
        match op {
            LockOp::Acquire(req) => {
                let payload = NetLockMsg::Acquire(*req);
                oracle.observe(&TapEvent::Sent {
                    at,
                    src: NodeId(req.client.0),
                    dst: manager,
                    payload: &payload,
                });
                shadow.acquire(*req);
                if *acquired == Some(TableAcquire::Granted) {
                    deliver_grant(&mut oracle, at, req);
                }
            }
            LockOp::Release { lock, txn } => {
                let held = shadow
                    .get(*lock)
                    .is_some_and(|st| st.holders().iter().any(|h| h.txn == *txn));
                shadow.release(*lock, *txn, &mut shadow_grants);
                shadow_grants.clear();
                if held {
                    // The holder's own client sends the release.
                    let client = ClientAddr((txn.0 >> 32) as u32);
                    let rel = ReleaseRequest {
                        lock: *lock,
                        txn: *txn,
                        mode: LockMode::Exclusive,
                        client,
                        priority: Priority(0),
                    };
                    let payload = NetLockMsg::Release(rel);
                    oracle.observe(&TapEvent::Sent {
                        at,
                        src: NodeId(client.0),
                        dst: manager,
                        payload: &payload,
                    });
                }
                for granted in grants {
                    deliver_grant(&mut oracle, at, granted);
                }
            }
        }
    }
    oracle.finish(((merged.len() as u64) + 2) * 1_000);
    assert!(
        oracle.is_clean(),
        "oracle violations on linearized history: {:?}",
        oracle.violations()
    );
}

fn deliver_grant(oracle: &mut Oracle, at: SimTime, req: &LockRequest) {
    let grant = GrantMsg {
        lock: req.lock,
        txn: req.txn,
        mode: req.mode,
        client: req.client,
        priority: req.priority,
        grantor: Grantor::Server,
        issued_at_ns: req.issued_at_ns,
    };
    let pkt = Packet {
        src: NodeId(0),
        dst: NodeId(req.client.0),
        payload: NetLockMsg::Grant(grant),
    };
    oracle.observe(&TapEvent::Delivered { at, pkt: &pkt });
}

fn check_backend<T: ConcurrentLockTable>(backend: T, schedule: &Schedule) {
    let merged = execute(&backend, schedule);
    let replay = assert_replay_matches(&merged);
    assert_oracle_clean(&merged);
    // End state: the backend's table and the replay table agree on
    // every touched lock.
    let table = backend.into_table();
    assert_eq!(table.len(), replay.len(), "touched-lock count diverged");
    let mut locks = Vec::new();
    table.touched_locks(&mut locks);
    for lock in locks {
        let got = table.get(lock).expect("touched lock has state");
        let want = replay.get(lock).expect("replay table has same locks");
        let got_holders: Vec<(TxnId, LockMode)> =
            got.holders().iter().map(|h| (h.txn, h.mode)).collect();
        let want_holders: Vec<(TxnId, LockMode)> =
            want.holders().iter().map(|h| (h.txn, h.mode)).collect();
        assert_eq!(got_holders, want_holders, "holders diverged on {lock:?}");
        let got_waiters: Vec<TxnId> = got.waiters().map(|r| r.txn).collect();
        let want_waiters: Vec<TxnId> = want.waiters().map(|r| r.txn).collect();
        assert_eq!(got_waiters, want_waiters, "waiters diverged on {lock:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mutex_backend_linearizes_and_audits_clean(schedule in schedule_strategy(4)) {
        let threads = schedule.threads.len();
        check_backend(MutexTable::new(threads, 0), &schedule);
    }

    #[test]
    fn flat_combining_linearizes_and_audits_clean(schedule in schedule_strategy(4)) {
        let threads = schedule.threads.len();
        check_backend(FlatCombining::new(threads, 0), &schedule);
    }

    #[test]
    fn ccsynch_linearizes_and_audits_clean(schedule in schedule_strategy(4)) {
        let threads = schedule.threads.len();
        check_backend(CcSynch::new(threads, 0), &schedule);
    }

    #[test]
    fn ccsynch_tiny_bound_linearizes(schedule in schedule_strategy(3)) {
        let threads = schedule.threads.len();
        check_backend(CcSynch::with_combine_bound(threads, 0, 1), &schedule);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Single-threaded schedules: every backend must match the
    /// sequential table op for op, with `apply_seq` equal to the
    /// submission index (no reordering is possible, and none may be
    /// invented).
    #[test]
    fn single_thread_exact_sequential_match(schedule in schedule_strategy(1)) {
        for which in 0..3usize {
            let plan = &schedule.threads[0];
            let mut reference = LockTable::new();
            let mut ref_grants = Vec::new();
            let backend: Box<dyn ConcurrentLockTable> = match which {
                0 => Box::new(MutexTable::new(1, 0)),
                1 => Box::new(FlatCombining::new(1, 0)),
                _ => Box::new(CcSynch::new(1, 0)),
            };
            let mut acquires: Vec<LockRequest> = Vec::new();
            let mut buf = Vec::new();
            for (i, planned) in plan.iter().enumerate() {
                let op = match *planned {
                    PlannedOp::Acquire { lock, exclusive } => {
                        let req = make_req(0, i, lock, exclusive);
                        acquires.push(req);
                        LockOp::Acquire(req)
                    }
                    PlannedOp::ReleaseEarlier { back } => {
                        if acquires.is_empty() {
                            LockOp::Release { lock: LockId(99), txn: TxnId(u64::MAX) }
                        } else {
                            let idx = acquires.len().saturating_sub(back);
                            let req = acquires[idx];
                            LockOp::Release { lock: req.lock, txn: req.txn }
                        }
                    }
                };
                let resp = backend.run(0, op, buf);
                let want = apply_sequential(&mut reference, &op, &mut ref_grants, 0);
                assert_eq!(resp.acquired, want, "backend {which} op {i}: verdict diverged");
                assert_eq!(resp.grants, ref_grants, "backend {which} op {i}: grants diverged");
                assert_eq!(resp.apply_seq, i as u64, "backend {which} op {i}: reordered");
                buf = resp.grants;
            }
        }
    }
}
