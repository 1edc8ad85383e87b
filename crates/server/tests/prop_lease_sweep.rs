//! The lease sweep walks only the locks that have a holder
//! (`LockTable::held_locks`). This property drives random acquire /
//! release / evict / clock-advance schedules through two tables — one
//! swept through the held-lock index, one through the reference full
//! scan (`LockTable::touched_locks`) — and requires the same grants in
//! the same order from every step, the same end state, and after every
//! step the index invariant: `held_locks` is exactly the sorted set of
//! locks whose holder list is non-empty.

use netlock_proto::{ClientAddr, LockId, LockMode, LockRequest, Priority, TenantId, TxnId};
use netlock_server::LockTable;
use proptest::{any, prop, prop_oneof, proptest, Just, ProptestConfig, Strategy};

const LEASE_NS: u64 = 1_000;

#[derive(Clone, Copy, Debug)]
enum Step {
    Acquire {
        lock: u32,
        exclusive: bool,
    },
    /// Release the `back`-th most recent acquire (stale if it is still
    /// queued, already released, expired or evicted — the table ignores
    /// those).
    Release {
        back: usize,
    },
    Evict {
        lock: u32,
    },
    Advance {
        ns: u64,
    },
    Sweep,
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    let step = prop_oneof![
        (0u32..6, any::<bool>()).prop_map(|(lock, exclusive)| Step::Acquire { lock, exclusive }),
        (0u32..6, any::<bool>()).prop_map(|(lock, exclusive)| Step::Acquire { lock, exclusive }),
        (1usize..10).prop_map(|back| Step::Release { back }),
        (0u32..6).prop_map(|lock| Step::Evict { lock }),
        (0u64..700).prop_map(|ns| Step::Advance { ns }),
        Just(Step::Sweep),
    ];
    prop::collection::vec(step, 1..120)
}

/// One sweep tick over `locks`, as `ServerNode::lease_sweep` runs it.
fn sweep(table: &mut LockTable, locks: &[LockId], now_ns: u64, grants: &mut Vec<LockRequest>) {
    for &lock in locks {
        table.expire_leases(lock, now_ns, LEASE_NS, grants);
    }
}

fn assert_index_invariant(table: &LockTable) {
    let mut touched = Vec::new();
    table.touched_locks(&mut touched);
    touched.retain(|&l| !table.get(l).expect("touched").holders().is_empty());
    let mut held = Vec::new();
    table.held_locks(&mut held);
    assert_eq!(held, touched, "held-lock index out of step with holders");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn held_lock_sweep_matches_full_scan(schedule in steps()) {
        let mut indexed = LockTable::new();
        let mut reference = LockTable::new();
        let mut now_ns = 0u64;
        let mut issued: Vec<LockRequest> = Vec::new();
        let (mut got, mut want, mut locks) = (Vec::new(), Vec::new(), Vec::new());
        for (i, step) in schedule.iter().enumerate() {
            got.clear();
            want.clear();
            match *step {
                Step::Acquire { lock, exclusive } => {
                    let req = LockRequest {
                        lock: LockId(lock),
                        mode: if exclusive { LockMode::Exclusive } else { LockMode::Shared },
                        txn: TxnId(i as u64),
                        client: ClientAddr(1),
                        tenant: TenantId(0),
                        priority: Priority(0),
                        issued_at_ns: now_ns,
                    };
                    issued.push(req);
                    assert_eq!(indexed.acquire(req), reference.acquire(req));
                }
                Step::Release { back } => {
                    if let Some(req) = issued.len().checked_sub(back).map(|at| issued[at]) {
                        indexed.release(req.lock, req.txn, &mut got);
                        reference.release(req.lock, req.txn, &mut want);
                    }
                }
                Step::Evict { lock } => {
                    let a = indexed.evict(LockId(lock)).map(|st| st.outstanding());
                    let b = reference.evict(LockId(lock)).map(|st| st.outstanding());
                    assert_eq!(a, b);
                }
                Step::Advance { ns } => now_ns += ns,
                Step::Sweep => {
                    locks.clear();
                    indexed.held_locks(&mut locks);
                    sweep(&mut indexed, &locks, now_ns, &mut got);
                    locks.clear();
                    reference.touched_locks(&mut locks);
                    sweep(&mut reference, &locks, now_ns, &mut want);
                }
            }
            assert_eq!(got, want, "grants diverged at step {i}: {step:?}");
            assert_index_invariant(&indexed);
            assert_index_invariant(&reference);
        }
        // End state: same locks, same holders, same waiters.
        let (mut a, mut b) = (Vec::new(), Vec::new());
        indexed.touched_locks(&mut a);
        reference.touched_locks(&mut b);
        assert_eq!(a, b);
        for lock in a {
            let (x, y) = (indexed.get(lock).unwrap(), reference.get(lock).unwrap());
            assert_eq!(x.holders(), y.holders(), "holders diverged on {lock:?}");
            assert!(x.waiters().eq(y.waiters()), "waiters diverged on {lock:?}");
        }
    }
}
