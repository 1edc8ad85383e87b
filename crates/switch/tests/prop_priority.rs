//! Property tests for the priority engine's safety invariants: no
//! shared/exclusive co-holding, single exclusive holder, holder
//! registers consistent with granted bits, and liveness (everything
//! eventually granted once traffic stops).

use proptest::prelude::*;

use netlock_proto::{ClientAddr, LockMode, Priority, TxnId};
use netlock_switch::priority::{PriorityEngine, PriorityLayout};
use netlock_switch::register::PassAllocator;
use netlock_switch::shared_queue::AcquireOutcome;
use netlock_switch::slot::Slot;

#[derive(Clone, Debug)]
enum Step {
    Acquire { shared: bool, prio: u8 },
    ReleaseOne,
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        prop_oneof![
            (any::<bool>(), 0u8..3).prop_map(|(shared, prio)| Step::Acquire { shared, prio }),
            Just(Step::ReleaseOne),
        ],
        1..120,
    )
}

struct Holder {
    txn: u64,
    mode: LockMode,
    prio: u8,
}

struct Harness {
    engine: PriorityEngine,
    passes: PassAllocator,
    holders: Vec<Holder>,
    next_txn: u64,
    outstanding: usize,
}

impl Harness {
    fn new() -> Harness {
        Harness {
            engine: PriorityEngine::new(&PriorityLayout::new(3, 128, 2)),
            passes: PassAllocator::new(),
            holders: Vec::new(),
            next_txn: 0,
            outstanding: 0,
        }
    }

    fn slot(&mut self, mode: LockMode, prio: u8) -> Slot {
        let txn = self.next_txn;
        self.next_txn += 1;
        Slot {
            valid: true,
            mode,
            txn: TxnId(txn),
            client: ClientAddr(txn as u32),
            priority: Priority(prio),
            issued_at_ns: 0,
            granted: false,
        }
    }

    fn acquire(&mut self, shared: bool, prio: u8) {
        let mode = if shared {
            LockMode::Shared
        } else {
            LockMode::Exclusive
        };
        let slot = self.slot(mode, prio);
        let (out, _) = self.engine.acquire(&mut self.passes, 0, slot);
        match out {
            AcquireOutcome::Granted => {
                self.holders.push(Holder {
                    txn: slot.txn.0,
                    mode,
                    prio,
                });
                self.outstanding += 1;
            }
            AcquireOutcome::Queued => {
                self.outstanding += 1;
            }
            AcquireOutcome::Overflow => panic!("regions sized to avoid overflow"),
        }
        self.check_safety();
    }

    fn release_one(&mut self) {
        if self.holders.is_empty() {
            return;
        }
        let h = self.holders.remove(0);
        let mut grants = Vec::new();
        let out = self
            .engine
            .release(&mut self.passes, 0, h.mode, h.prio, 0, &mut grants);
        assert!(!out.spurious, "engine lost holder {}", h.txn);
        self.outstanding -= 1;
        for g in &grants {
            self.holders.push(Holder {
                txn: g.txn.0,
                mode: g.mode,
                prio: g.priority.0,
            });
        }
        self.check_safety();
    }

    fn check_safety(&self) {
        let shared = self
            .holders
            .iter()
            .filter(|h| h.mode == LockMode::Shared)
            .count();
        let excl = self
            .holders
            .iter()
            .filter(|h| h.mode == LockMode::Exclusive)
            .count();
        assert!(excl <= 1, "two exclusive holders");
        assert!(
            excl == 0 || shared == 0,
            "shared and exclusive co-held: {shared} S + {excl} X"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Safety under arbitrary interleavings of priorities and modes.
    #[test]
    fn mutual_exclusion_across_priorities(steps in steps()) {
        let mut h = Harness::new();
        for step in steps {
            match step {
                Step::Acquire { shared, prio } => h.acquire(shared, prio),
                Step::ReleaseOne => h.release_one(),
            }
        }
    }

    /// Liveness: once acquires stop, draining all holders grants every
    /// queued request exactly once (nothing is stranded).
    #[test]
    fn drain_grants_everything(steps in steps()) {
        let mut h = Harness::new();
        let mut acquired = 0usize;
        for step in steps {
            match step {
                Step::Acquire { shared, prio } => {
                    h.acquire(shared, prio);
                    acquired += 1;
                }
                Step::ReleaseOne => {
                    let before = h.holders.len();
                    h.release_one();
                    let _ = before;
                }
            }
        }
        // Drain: release until nothing is held; every queued request
        // must surface as a grant along the way.
        let mut guard = 0;
        while !h.holders.is_empty() {
            h.release_one();
            guard += 1;
            prop_assert!(guard <= acquired + 1, "drain does not terminate");
        }
        prop_assert_eq!(h.outstanding, 0, "requests stranded in the queues");
        prop_assert_eq!(h.engine.cp_total_count(0), 0, "queues not empty after drain");
    }
}
