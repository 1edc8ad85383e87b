//! Property tests: the switch FCFS engine (Algorithm 2 over register
//! arrays, with all of Tofino's access constraints) must behave exactly
//! like a plain-Rust reference lock table for any sequence of acquires
//! and releases.
//!
//! The reference model is `netlock_server::LockTable` — written with
//! explicit holder tracking and no hardware constraints — so agreement
//! here is strong evidence Algorithm 2's implicit-grant-state design is
//! correct.

use proptest::prelude::*;

use netlock_proto::{ClientAddr, LockId, LockMode, LockRequest, Priority, TenantId, TxnId};
use netlock_server::{LockTable, TableAcquire};
use netlock_switch::register::PassAllocator;
use netlock_switch::shared_queue::{AcquireOutcome, SharedQueue, SharedQueueLayout};
use netlock_switch::slot::Slot;

/// A step of the generated workload.
#[derive(Clone, Debug)]
enum Step {
    Acquire {
        lock: u8,
        shared: bool,
    },
    ReleaseOldest {
        lock: u8,
    },
    /// Shared holders may release in any order (§4.2: "these
    /// transactions may not release their locks in the order that the
    /// requests are enqueued"); the switch dequeues the head anyway,
    /// which is correct because shared releases are commutative.
    ReleaseNewest {
        lock: u8,
    },
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        prop_oneof![
            (0u8..4, any::<bool>()).prop_map(|(lock, shared)| Step::Acquire { lock, shared }),
            (0u8..4).prop_map(|lock| Step::ReleaseOldest { lock }),
            (0u8..4).prop_map(|lock| Step::ReleaseNewest { lock }),
        ],
        1..200,
    )
}

fn req(lock: u8, mode: LockMode, txn: u64) -> LockRequest {
    LockRequest {
        lock: LockId(lock as u32),
        mode,
        txn: TxnId(txn),
        client: ClientAddr(txn as u32),
        tenant: TenantId(0),
        priority: Priority(0),
        issued_at_ns: txn,
    }
}

/// Drives both implementations in lockstep.
struct Harness {
    queue: SharedQueue,
    passes: PassAllocator,
    model: LockTable,
    /// Grant order per lock observed from the engine.
    engine_grants: Vec<(u8, u64)>,
    /// Grant order per lock observed from the model.
    model_grants: Vec<(u8, u64)>,
    /// FIFO of granted txns per lock, engine view (granted = holder).
    holders: Vec<Vec<u64>>,
    next_txn: u64,
}

impl Harness {
    fn new() -> Harness {
        let mut queue = SharedQueue::new(&SharedQueueLayout::small(4, 64, 8));
        for qid in 0..4 {
            queue.cp_set_region(qid, qid as u32 * 64, qid as u32 * 64 + 64);
        }
        Harness {
            queue,
            passes: PassAllocator::new(),
            model: LockTable::new(),
            engine_grants: Vec::new(),
            model_grants: Vec::new(),
            holders: vec![Vec::new(); 4],
            next_txn: 0,
        }
    }

    /// Regions of the given capacities, small enough that a few hundred
    /// steps wrap, drain and fill them many times over.
    fn with_capacities(caps: [u32; 4]) -> Harness {
        let mut h = Harness::new();
        let mut left = 0;
        for (qid, cap) in caps.into_iter().enumerate() {
            h.queue.cp_set_region(qid, left, left + cap);
            left += cap;
        }
        h
    }

    /// Whether the next acquire of `lock` would find its region full (it
    /// would overflow to a server, which the unbounded model has no
    /// counterpart for).
    fn is_full(&self, lock: u8) -> bool {
        let v = self.queue.cp_region(lock as usize);
        v.count == v.capacity()
    }

    /// The engine-only invariants, checked after every step: occupancy
    /// within capacity, an exact exclusive counter, occupancy equal to
    /// the model's outstanding requests, and an empty region's head at
    /// its first slot.
    fn check_regions(&self) {
        for lock in 0..4u8 {
            let v = self.queue.cp_region(lock as usize);
            assert!(v.count <= v.capacity(), "lock {lock}: {v:?}");
            assert!(
                v.count > 0 || v.head == 0,
                "lock {lock}: empty ⇒ head == 0, {v:?}"
            );
            let excl = self
                .queue
                .cp_entries(lock as usize)
                .filter(|s| s.mode == LockMode::Exclusive)
                .count();
            assert_eq!(v.excl as usize, excl, "lock {lock}: excl register drifted");
            let model_outstanding = self
                .model
                .get(LockId(lock as u32))
                .map(|st| st.outstanding())
                .unwrap_or(0);
            assert_eq!(v.count as usize, model_outstanding, "lock {lock}");
        }
    }

    fn acquire(&mut self, lock: u8, mode: LockMode) {
        let txn = self.next_txn;
        self.next_txn += 1;
        let r = req(lock, mode, txn);
        let engine_out =
            self.queue
                .acquire(&mut self.passes, lock as usize, Slot::from_request(&r));
        let model_out = self.model.acquire(r);
        match (engine_out, model_out) {
            (AcquireOutcome::Granted, TableAcquire::Granted) => {
                self.engine_grants.push((lock, txn));
                self.model_grants.push((lock, txn));
                self.holders[lock as usize].push(txn);
            }
            (AcquireOutcome::Queued, TableAcquire::Queued) => {}
            (e, m) => panic!("acquire divergence on txn {txn}: engine {e:?}, model {m:?}"),
        }
    }

    /// Release a granted holder of `lock`: the oldest (FIFO) or the
    /// newest (out-of-order shared release). The engine dequeues its
    /// queue head either way — anonymity of shared slots makes that
    /// correct — while the model releases the exact transaction.
    fn release_holder(&mut self, lock: u8, newest: bool) {
        let held = &mut self.holders[lock as usize];
        let Some(txn) = (if newest { held.last() } else { held.first() }).copied() else {
            // Nothing held: the engine treats this as spurious; skip.
            return;
        };
        if newest {
            held.pop();
        } else {
            held.remove(0);
        }
        // Determine the released mode from the model's holder set.
        let mode = self
            .model
            .get(LockId(lock as u32))
            .and_then(|st| {
                st.holders()
                    .iter()
                    .find(|h| h.txn == TxnId(txn))
                    .map(|h| h.mode)
            })
            .expect("model must agree the txn holds the lock");
        let mut grants = Vec::new();
        let engine_out = self
            .queue
            .release(&mut self.passes, lock as usize, mode, &mut grants);
        assert!(!engine_out.spurious, "engine lost a holder");
        let mut model_granted = Vec::new();
        self.model
            .release(LockId(lock as u32), TxnId(txn), &mut model_granted);
        // Engine grants carry (mode, txn, client); compare txn ids.
        let engine_granted: Vec<u64> = grants.iter().map(|s| s.txn.0).collect();
        let model_ids: Vec<u64> = model_granted.iter().map(|r| r.txn.0).collect();
        assert_eq!(
            engine_granted, model_ids,
            "release of txn {txn} on lock {lock}: grant sets diverge"
        );
        for &g in &engine_granted {
            self.engine_grants.push((lock, g));
            self.model_grants.push((lock, g));
            self.holders[lock as usize].push(g);
        }
    }

    fn check_final(&self) {
        assert_eq!(self.engine_grants, self.model_grants);
        // Queue occupancy equals model holders + waiters per lock.
        for lock in 0..4u8 {
            let v = self.queue.cp_region(lock as usize);
            let model_outstanding = self
                .model
                .get(LockId(lock as u32))
                .map(|st| st.outstanding())
                .unwrap_or(0);
            assert_eq!(
                v.count as usize, model_outstanding,
                "lock {lock}: queue count vs model outstanding"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// For any workload, the data-plane engine and the reference lock
    /// table grant the same transactions in the same order and agree on
    /// outstanding counts.
    #[test]
    fn engine_matches_reference_model(steps in steps()) {
        let mut h = Harness::new();
        for step in steps {
            match step {
                Step::Acquire { lock, shared } => {
                    let mode = if shared { LockMode::Shared } else { LockMode::Exclusive };
                    h.acquire(lock, mode);
                }
                Step::ReleaseOldest { lock } => h.release_holder(lock, false),
                Step::ReleaseNewest { lock } => h.release_holder(lock, true),
            }
        }
        h.check_final();
    }

    /// Safety invariant, engine-only: at any point, a lock's queue never
    /// holds more than its capacity, and the exclusive counter matches
    /// the actual queue contents.
    #[test]
    fn excl_counter_is_exact(steps in steps()) {
        let mut h = Harness::new();
        for step in steps {
            match step {
                Step::Acquire { lock, shared } => {
                    let mode = if shared { LockMode::Shared } else { LockMode::Exclusive };
                    h.acquire(lock, mode);
                }
                Step::ReleaseOldest { lock } => h.release_holder(lock, false),
                Step::ReleaseNewest { lock } => h.release_holder(lock, true),
            }
            for qid in 0..4 {
                let v = h.queue.cp_region(qid);
                prop_assert!(v.count <= v.capacity());
                let excl = h.queue.cp_entries(qid).filter(|s| s.mode == LockMode::Exclusive).count();
                prop_assert_eq!(v.excl as usize, excl, "excl register drifted");
            }
        }
    }

    /// The same agreement on regions of 1–5 slots over longer runs, so
    /// wraps, drains to empty and full regions all occur: every ring
    /// position is exercised as a restart point. Acquires that would
    /// find their region full are skipped. After every step the region
    /// invariants hold, including empty ⇒ head == 0.
    #[test]
    fn small_regions_match_reference_model(
        (a, b, c, d) in (1u32..=5, 1u32..=5, 1u32..=5, 1u32..=5),
        steps in prop::collection::vec(
            // Acquires listed twice: half the steps acquire, so regions
            // reach full as often as they drain.
            prop_oneof![
                (0u8..4, any::<bool>()).prop_map(|(lock, shared)| Step::Acquire { lock, shared }),
                (0u8..4, any::<bool>()).prop_map(|(lock, shared)| Step::Acquire { lock, shared }),
                (0u8..4).prop_map(|lock| Step::ReleaseOldest { lock }),
                (0u8..4).prop_map(|lock| Step::ReleaseNewest { lock }),
            ],
            1..400,
        ),
    ) {
        let mut h = Harness::with_capacities([a, b, c, d]);
        for step in steps {
            match step {
                Step::Acquire { lock, .. } if h.is_full(lock) => continue,
                Step::Acquire { lock, shared } => {
                    let mode = if shared { LockMode::Shared } else { LockMode::Exclusive };
                    h.acquire(lock, mode);
                }
                Step::ReleaseOldest { lock } => h.release_holder(lock, false),
                Step::ReleaseNewest { lock } => h.release_holder(lock, true),
            }
            h.check_regions();
        }
        h.check_final();
    }
}
