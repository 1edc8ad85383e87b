//! `LockTable` keeps a lock's entry only while the lock has a holder.
//! This property drives random acquire / release / clock-advance /
//! sweep schedules through the table and through a reference model
//! kept in this file that never forgets a lock it has seen, and
//! requires after every step: the same grants in the same
//! order, the same holders and waiters on every lock the model still
//! has a holder for, and `len()` equal to the number of such locks —
//! reclaiming an idle entry must be invisible except in memory.

use std::collections::{BTreeMap, VecDeque};

use netlock_proto::{ClientAddr, LockId, LockMode, LockRequest, Priority, TenantId, TxnId};
use netlock_server::{LockTable, TableAcquire};
use proptest::{any, prop, prop_oneof, proptest, Just, ProptestConfig, Strategy};

const LEASE_NS: u64 = 1_000;

#[derive(Clone, Copy, Debug)]
enum Step {
    Acquire {
        lock: u32,
        exclusive: bool,
    },
    /// Release the `back`-th most recent acquire (stale if it is still
    /// queued, already released or expired — the table ignores those).
    Release {
        back: usize,
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
        (1usize..10).prop_map(|back| Step::Release { back }),
        (0u64..700).prop_map(|ns| Step::Advance { ns }),
        Just(Step::Sweep),
    ];
    prop::collection::vec(step, 1..120)
}

/// One lock of the reference model: FCFS shared/exclusive, holders in
/// grant order.
#[derive(Default)]
struct ModelLock {
    holders: Vec<LockRequest>,
    waiters: VecDeque<LockRequest>,
}

impl ModelLock {
    fn compatible(&self, mode: LockMode) -> bool {
        match mode {
            LockMode::Shared => self.holders.iter().all(|h| h.mode == LockMode::Shared),
            LockMode::Exclusive => self.holders.is_empty(),
        }
    }

    fn promote(&mut self, granted: &mut Vec<LockRequest>) {
        while self
            .waiters
            .front()
            .is_some_and(|w| self.compatible(w.mode))
        {
            let req = self.waiters.pop_front().expect("front exists");
            self.holders.push(req);
            granted.push(req);
        }
    }
}

/// The never-forgetting reference: a lock, once seen, keeps its (maybe
/// empty) state.
#[derive(Default)]
struct Model {
    locks: BTreeMap<LockId, ModelLock>,
}

impl Model {
    fn acquire(&mut self, req: LockRequest) -> TableAcquire {
        let st = self.locks.entry(req.lock).or_default();
        if st.waiters.is_empty() && st.compatible(req.mode) {
            st.holders.push(req);
            TableAcquire::Granted
        } else {
            st.waiters.push_back(req);
            TableAcquire::Queued
        }
    }

    fn release(&mut self, lock: LockId, txn: TxnId, granted: &mut Vec<LockRequest>) {
        let Some(st) = self.locks.get_mut(&lock) else {
            return;
        };
        let Some(pos) = st.holders.iter().position(|h| h.txn == txn) else {
            return;
        };
        st.holders.remove(pos);
        st.promote(granted);
    }

    /// One sweep tick over every lock ever seen, in lock order.
    fn sweep(&mut self, now_ns: u64, granted: &mut Vec<LockRequest>) {
        for st in self.locks.values_mut() {
            let before = st.holders.len();
            st.holders
                .retain(|h| now_ns.saturating_sub(h.issued_at_ns) <= LEASE_NS);
            if st.holders.len() != before {
                st.promote(granted);
            }
        }
    }

    fn live(&self) -> impl Iterator<Item = (LockId, &ModelLock)> {
        self.locks
            .iter()
            .filter(|(_, st)| !st.holders.is_empty())
            .map(|(&lock, st)| (lock, st))
    }
}

fn by_txn(mut reqs: Vec<LockRequest>) -> Vec<LockRequest> {
    reqs.sort_by_key(|r| r.txn);
    reqs
}

fn assert_same_live_state(table: &LockTable, model: &Model, at: (usize, &Step)) {
    let mut live = Vec::new();
    table.held_locks(&mut live);
    let want: Vec<LockId> = model.live().map(|(lock, _)| lock).collect();
    assert_eq!(live, want, "live locks diverged after step {at:?}");
    assert_eq!(
        table.len(),
        want.len(),
        "len() is not the held count after step {at:?}"
    );
    for (lock, m) in model.live() {
        let st = table.get(lock).expect("live lock has state");
        // The table does not promise an order among co-holders.
        let got = by_txn(st.holders().iter().map(|h| h.req).collect());
        assert_eq!(
            got,
            by_txn(m.holders.clone()),
            "holders of {lock:?} after step {at:?}"
        );
        assert!(
            st.waiters().eq(m.waiters.iter()),
            "waiters of {lock:?} after step {at:?}"
        );
    }
    // What the model remembers beyond the table is exactly the idle.
    for (lock, m) in &model.locks {
        if m.holders.is_empty() {
            assert!(m.waiters.is_empty(), "FCFS left waiters on unheld {lock:?}");
            assert!(
                table.get(*lock).is_none(),
                "idle {lock:?} kept its entry after step {at:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn reclaiming_table_matches_never_forgetting_model(schedule in steps()) {
        let mut table = LockTable::new();
        let mut model = Model::default();
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
                    assert_eq!(table.acquire(req), model.acquire(req), "step {i}: {step:?}");
                }
                Step::Release { back } => {
                    if let Some(req) = issued.len().checked_sub(back).map(|at| issued[at]) {
                        table.release(req.lock, req.txn, &mut got);
                        model.release(req.lock, req.txn, &mut want);
                    }
                }
                Step::Advance { ns } => now_ns += ns,
                Step::Sweep => {
                    // As `ServerNode::lease_sweep` runs it.
                    locks.clear();
                    table.held_locks(&mut locks);
                    for &lock in &locks {
                        table.expire_leases(lock, now_ns, LEASE_NS, &mut got);
                    }
                    model.sweep(now_ns, &mut want);
                }
            }
            assert_eq!(got, want, "grants diverged at step {i}: {step:?}");
            assert_same_live_state(&table, &model, (i, step));
        }
    }
}
