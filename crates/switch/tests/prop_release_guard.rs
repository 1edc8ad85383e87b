//! Property tests: the per-region release guard decides exactly what an
//! ordered list of outstanding `(lock, txn, mode)` grants decides, and
//! holds no more credits than its region has holders.
//!
//! The guard keeps one FIFO of `(transaction, mode)` pairs per queue
//! region; the reference kept here is one list of every outstanding
//! grant in grant order. A release spends the oldest grant of its
//! transaction in its mode; a lease sweeper's forced release whose own
//! grant is already spent spends the oldest grant of the lock instead.
//! Over random schedules — duplicate grants of one transaction,
//! releases out of grant order, releases nobody was granted, releases
//! in another mode than their grant, full and partial lease sweeps,
//! reboots — both must admit and filter the same releases at every
//! step, a region's FIFO must hold exactly the reference's grants of
//! the lock that owns the region, and no region may hold more credits
//! than granted slots: its shared head run, or its one exclusive head.

use proptest::prelude::*;

use netlock_proto::{
    ClientAddr, LockId, LockMode, LockRequest, NetLockMsg, Priority, ReleaseRequest, TenantId,
    TxnId,
};
use netlock_switch::control::{apply_allocation, expired_leases, Allocation};
use netlock_switch::dataplane::{DataPlane, DpAction, Engine};
use netlock_switch::shared_queue::SharedQueueLayout;
use netlock_switch::{ActionBuf, GrantLedger};

/// Outstanding grants in grant order.
#[derive(Default)]
struct Reference(Vec<ReleaseRequest>);

impl Reference {
    fn credit(&mut self, grant: ReleaseRequest) {
        self.0.push(grant);
    }
    fn find(&self, lock: LockId, txn: TxnId, mode: LockMode) -> Option<usize> {
        self.0
            .iter()
            .position(|g| (g.lock, g.txn, g.mode) == (lock, txn, mode))
    }
    fn authorizes(&self, lock: LockId, txn: TxnId, mode: LockMode) -> bool {
        self.find(lock, txn, mode).is_some()
    }
    fn consume(&mut self, lock: LockId, txn: TxnId, mode: LockMode) -> bool {
        let at = self.find(lock, txn, mode);
        at.map(|i| self.0.remove(i)).is_some()
    }
    fn consume_oldest(&mut self, lock: LockId) {
        if let Some(i) = self.0.iter().position(|g| g.lock == lock) {
            self.0.remove(i);
        }
    }
    fn outstanding(&self, lock: LockId) -> usize {
        self.0.iter().filter(|g| g.lock == lock).count()
    }
}

/// A grant of `(lock, txn, mode)` with nothing else to tell it apart.
fn grant(lock: u32, txn: u64, mode: LockMode) -> ReleaseRequest {
    ReleaseRequest {
        lock: LockId(lock),
        txn: TxnId(txn),
        mode,
        client: ClientAddr(1),
        priority: Priority(0),
    }
}

const LOCKS: u32 = 4;
/// Few transaction ids, so one transaction is often granted twice.
const TXNS: u64 = 6;

#[derive(Clone, Debug)]
enum LedgerOp {
    Credit(u32, u64, bool),
    Consume(u32, u64, bool),
    ConsumeOldest(u32),
    Authorizes(u32, u64, bool),
    Clear,
}

fn ledger_ops() -> impl Strategy<Value = Vec<LedgerOp>> {
    let key = || (0..LOCKS, 0..TXNS, any::<bool>());
    prop::collection::vec(
        // The shim's `prop_oneof!` is unweighted: repeat to weight, and
        // keep `Clear` rare (its own coin) so ledgers grow between them.
        prop_oneof![
            key().prop_map(|(l, t, s)| LedgerOp::Credit(l, t, s)),
            key().prop_map(|(l, t, s)| LedgerOp::Credit(l, t, s)),
            key().prop_map(|(l, t, s)| LedgerOp::Consume(l, t, s)),
            key().prop_map(|(l, t, s)| LedgerOp::Consume(l, t, s)),
            (0..LOCKS).prop_map(LedgerOp::ConsumeOldest),
            key().prop_map(|(l, t, s)| LedgerOp::Authorizes(l, t, s)),
            (0..8u8).prop_map(|c| if c == 0 {
                LedgerOp::Clear
            } else {
                LedgerOp::Authorizes(0, 0, true)
            }),
        ],
        1..300,
    )
}

/// Region of lock `l` in the ledger-only test: regions need not be
/// dense or ordered like the locks that own them.
fn qid_of(lock: u32) -> usize {
    (lock as usize * 7 + 3) % 11
}

#[derive(Clone, Debug)]
enum Step {
    /// Acquire `lock` as transaction `txn` (a repeat is a duplicate).
    Acquire { lock: u32, txn: u64, shared: bool },
    /// Release the `nth` outstanding grant (any order).
    ReleaseHeld { nth: usize },
    /// Release something that may never have been granted.
    ReleaseAny { lock: u32, txn: u64, shared: bool },
    /// Let every lease run out and sweep.
    Sweep,
    /// Sweep with a lease of `lease` steps: only the older holders
    /// expire.
    SweepOlder { lease: u64 },
    /// Wipe the registers.
    Reboot,
}

fn acquire() -> impl Strategy<Value = Step> {
    (0..LOCKS, 0..TXNS, any::<bool>()).prop_map(|(lock, txn, shared)| Step::Acquire {
        lock,
        txn,
        shared,
    })
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        prop_oneof![
            acquire(),
            acquire(),
            acquire(),
            (0..64usize).prop_map(|nth| Step::ReleaseHeld { nth }),
            (0..64usize).prop_map(|nth| Step::ReleaseHeld { nth }),
            (0..LOCKS, 0..TXNS, any::<bool>()).prop_map(|(lock, txn, shared)| Step::ReleaseAny {
                lock,
                txn,
                shared
            }),
            (0..32u64).prop_map(|lease| Step::SweepOlder { lease }),
            // Rare events share one arm.
            (0..6u8, 0..64usize).prop_map(|(c, nth)| match c {
                0 => Step::Sweep,
                1 => Step::Reboot,
                _ => Step::ReleaseHeld { nth },
            }),
        ],
        1..300,
    )
}

const REGION_CAP: u32 = 8;

/// Lock `l` in queue region `l`, `REGION_CAP` slots each.
fn program(dp: &mut DataPlane) {
    let alloc = Allocation {
        in_switch: (0..LOCKS).map(|l| (LockId(l), REGION_CAP, 0)).collect(),
        in_server: Vec::new(),
    };
    apply_allocation(dp, &alloc);
}

fn mode(shared: bool) -> LockMode {
    if shared {
        LockMode::Shared
    } else {
        LockMode::Exclusive
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The ledger alone, against the reference, operation by operation.
    #[test]
    fn ledger_decides_like_the_multiset(ops in ledger_ops()) {
        let mut ledger = GrantLedger::default();
        let mut reference = Reference::default();
        for op in ops {
            match op {
                LedgerOp::Credit(l, t, s) => {
                    ledger.credit(qid_of(l), TxnId(t), mode(s));
                    reference.credit(grant(l, t, mode(s)));
                }
                LedgerOp::Consume(l, t, s) => prop_assert_eq!(
                    ledger.consume(qid_of(l), TxnId(t), mode(s)),
                    reference.consume(LockId(l), TxnId(t), mode(s))
                ),
                LedgerOp::ConsumeOldest(l) => {
                    ledger.consume_oldest(qid_of(l));
                    reference.consume_oldest(LockId(l));
                }
                LedgerOp::Authorizes(l, t, s) => prop_assert_eq!(
                    ledger.authorizes(qid_of(l), TxnId(t), mode(s)),
                    reference.authorizes(LockId(l), TxnId(t), mode(s))
                ),
                LedgerOp::Clear => {
                    ledger.clear();
                    reference.0.clear();
                }
            }
            for l in 0..LOCKS {
                prop_assert_eq!(
                    ledger.outstanding(qid_of(l)),
                    reference.outstanding(LockId(l))
                );
            }
        }
    }

    /// The guard where it runs: a guarded data plane admits a release
    /// exactly when the reference, fed the grants the data plane
    /// emitted, holds one for it, and forced releases spend what the
    /// reference says. Modes are drawn at random, so a release may
    /// carry another mode than its transaction was granted; the guard
    /// filters it, and credits stay within holders.
    #[test]
    fn guarded_dataplane_admits_like_the_multiset(ops in steps()) {
        drive(ops, false);
    }

    /// The same schedules with every transaction holding a lock in one
    /// mode, as clients do: no region ever holds more credits than
    /// holders.
    #[test]
    fn credits_never_outnumber_holders(ops in steps()) {
        drive(ops, true);
    }
}

/// The mode transaction `txn` uses on `lock` when modes conform: two
/// thirds shared, so shared head runs form and release out of order.
fn conforming_mode(lock: u32, txn: u64) -> LockMode {
    mode(!(lock as u64 + txn).is_multiple_of(3))
}

/// Run `ops` against a guarded data plane and the reference. With
/// `conforming`, every acquire and release of `(lock, txn)` carries
/// [`conforming_mode`]; otherwise modes are the schedule's. Either way
/// each step must leave every region with at most as many credits as
/// holders.
fn drive(ops: Vec<Step>, conforming: bool) {
    let pick = |lock: u32, txn: u64, shared: bool| {
        if conforming {
            conforming_mode(lock, txn)
        } else {
            mode(shared)
        }
    };
    let mut dp = DataPlane::new_fcfs(&SharedQueueLayout::small(
        1,
        (LOCKS * REGION_CAP) as usize,
        LOCKS as usize,
    ));
    dp.set_release_guard(true);
    program(&mut dp);
    let mut reference = Reference::default();
    let mut out = ActionBuf::new();
    let mut now = 0u64;
    for op in ops {
        now += 1;
        let (releases, forced): (Vec<ReleaseRequest>, bool) = match op {
            Step::Acquire { lock, txn, shared } => {
                dp.process(
                    NetLockMsg::Acquire(LockRequest {
                        lock: LockId(lock),
                        mode: pick(lock, txn, shared),
                        txn: TxnId(txn),
                        client: ClientAddr(1),
                        tenant: TenantId(0),
                        priority: Priority(0),
                        issued_at_ns: now,
                    }),
                    now,
                    &mut out,
                );
                (Vec::new(), false)
            }
            Step::ReleaseHeld { nth } if !reference.0.is_empty() => {
                (vec![reference.0[nth % reference.0.len()]], false)
            }
            Step::ReleaseHeld { .. } => (Vec::new(), false),
            Step::ReleaseAny { lock, txn, shared } => (
                vec![ReleaseRequest {
                    lock: LockId(lock),
                    txn: TxnId(txn),
                    mode: pick(lock, txn, shared),
                    client: ClientAddr(1),
                    priority: Priority(0),
                }],
                false,
            ),
            Step::Sweep => {
                now += 1_000_000;
                (expired_leases(&dp, now, 1_000), true)
            }
            Step::SweepOlder { lease } => (expired_leases(&dp, now, lease), true),
            Step::Reboot => {
                dp.reset();
                program(&mut dp);
                reference.0.clear();
                out.clear();
                (Vec::new(), false)
            }
        };
        for rel in releases {
            if forced {
                if !reference.consume(rel.lock, rel.txn, rel.mode) {
                    reference.consume_oldest(rel.lock);
                }
                dp.force_release(rel, now, &mut out);
            } else {
                let expect = reference.consume(rel.lock, rel.txn, rel.mode);
                let admitted = dp.process_release(rel, now, &mut out);
                prop_assert_eq!(admitted, expect, "release {:?}", rel);
                if !admitted {
                    prop_assert!(out.is_empty(), "a filtered release acts");
                }
            }
            // Grants the release handed on.
            note_grants(&out, &mut reference);
            out.clear();
        }
        note_grants(&out, &mut reference);
        out.clear();
        let Engine::Fcfs(q) = dp.engine() else {
            unreachable!()
        };
        for l in 0..LOCKS {
            let outstanding = dp.guard_outstanding(l as usize);
            prop_assert_eq!(outstanding, reference.outstanding(LockId(l)));
            // Holders as the lease sweeper derives them.
            let entries: Vec<_> = q.cp_entries(l as usize).collect();
            let holders = match entries.first().map(|h| h.mode) {
                None => 0,
                Some(LockMode::Exclusive) => 1,
                Some(LockMode::Shared) => entries
                    .iter()
                    .take_while(|e| e.mode == LockMode::Shared)
                    .count(),
            };
            prop_assert!(
                outstanding <= holders,
                "lock {}: {} credits, {} holders",
                l,
                outstanding,
                holders
            );
        }
    }
}

fn note_grants(out: &ActionBuf, reference: &mut Reference) {
    for act in out.iter() {
        if let DpAction::SendGrant(g) = act {
            reference.credit(ReleaseRequest {
                lock: g.lock,
                txn: g.txn,
                mode: g.mode,
                client: g.client,
                priority: g.priority,
            });
        }
    }
}
