//! Property tests: the per-region release guard decides exactly what a
//! multiset of outstanding `(lock, txn)` grants decides.
//!
//! The guard keeps one FIFO of transaction ids per queue region; the
//! reference kept here is the structure it replaced, a
//! `HashMap<(LockId, TxnId), u32>`. Over random schedules — duplicate
//! grants of one transaction, releases out of grant order, releases
//! nobody was granted, lease-sweeper releases, reboots — both must admit
//! and filter the same releases at every step, and a region's FIFO must
//! hold exactly the reference's grants of the lock that owns the region
//! (so never more than the region has slots).

use std::collections::HashMap;

use proptest::prelude::*;

use netlock_proto::{
    ClientAddr, LockId, LockMode, LockRequest, NetLockMsg, Priority, ReleaseRequest, TenantId,
    TxnId,
};
use netlock_switch::control::expired_leases;
use netlock_switch::dataplane::{DataPlane, DpAction, Engine};
use netlock_switch::shared_queue::SharedQueueLayout;
use netlock_switch::{ActionBuf, GrantLedger};

/// The structure the guard replaced: outstanding grants per key.
#[derive(Default)]
struct Reference(HashMap<(LockId, TxnId), u32>);

impl Reference {
    fn credit(&mut self, lock: LockId, txn: TxnId) {
        *self.0.entry((lock, txn)).or_insert(0) += 1;
    }
    fn authorizes(&self, lock: LockId, txn: TxnId) -> bool {
        self.0.contains_key(&(lock, txn))
    }
    fn consume(&mut self, lock: LockId, txn: TxnId) -> bool {
        match self.0.get_mut(&(lock, txn)) {
            Some(n) if *n > 1 => *n -= 1,
            Some(_) => {
                self.0.remove(&(lock, txn));
            }
            None => return false,
        }
        true
    }
    fn outstanding(&self, lock: LockId) -> usize {
        self.0
            .iter()
            .filter(|((l, _), _)| *l == lock)
            .map(|(_, &n)| n as usize)
            .sum()
    }
}

const LOCKS: u32 = 4;
/// Few transaction ids, so one transaction is often granted twice.
const TXNS: u64 = 6;

#[derive(Clone, Debug)]
enum LedgerOp {
    Credit(u32, u64),
    Consume(u32, u64),
    Authorizes(u32, u64),
    Clear,
}

fn ledger_ops() -> impl Strategy<Value = Vec<LedgerOp>> {
    let key = || (0..LOCKS, 0..TXNS);
    prop::collection::vec(
        // The shim's `prop_oneof!` is unweighted: repeat to weight, and
        // keep `Clear` rare (its own coin) so ledgers grow between them.
        prop_oneof![
            key().prop_map(|(l, t)| LedgerOp::Credit(l, t)),
            key().prop_map(|(l, t)| LedgerOp::Credit(l, t)),
            key().prop_map(|(l, t)| LedgerOp::Consume(l, t)),
            key().prop_map(|(l, t)| LedgerOp::Consume(l, t)),
            key().prop_map(|(l, t)| LedgerOp::Authorizes(l, t)),
            (0..8u8).prop_map(|c| if c == 0 {
                LedgerOp::Clear
            } else {
                LedgerOp::Authorizes(0, 0)
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

fn program(dp: &mut DataPlane) {
    for l in 0..LOCKS {
        match dp.engine_mut() {
            Engine::Fcfs(q) => q.cp_set_region(l as usize, l * REGION_CAP, (l + 1) * REGION_CAP),
            _ => unreachable!(),
        }
        dp.directory_mut()
            .set_switch_resident(LockId(l), l as usize, 0);
    }
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
                LedgerOp::Credit(l, t) => {
                    ledger.credit(qid_of(l), TxnId(t));
                    reference.credit(LockId(l), TxnId(t));
                }
                LedgerOp::Consume(l, t) => prop_assert_eq!(
                    ledger.consume(qid_of(l), TxnId(t)),
                    reference.consume(LockId(l), TxnId(t))
                ),
                LedgerOp::Authorizes(l, t) => prop_assert_eq!(
                    ledger.authorizes(qid_of(l), TxnId(t)),
                    reference.authorizes(LockId(l), TxnId(t))
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
    /// emitted, holds one for it.
    #[test]
    fn guarded_dataplane_admits_like_the_multiset(ops in steps()) {
        let mut dp = DataPlane::new_fcfs(&SharedQueueLayout::small(
            1,
            (LOCKS * REGION_CAP) as usize,
            LOCKS as usize,
        ));
        dp.set_release_guard(true);
        program(&mut dp);
        let mut reference = Reference::default();
        // Outstanding grants in grant order, to release from.
        let mut held: Vec<ReleaseRequest> = Vec::new();
        let mut out = ActionBuf::new();
        let mut now = 0u64;
        for op in ops {
            now += 1;
            let releases: Vec<ReleaseRequest> = match op {
                Step::Acquire { lock, txn, shared } => {
                    dp.process(
                        NetLockMsg::Acquire(LockRequest {
                            lock: LockId(lock),
                            mode: mode(shared),
                            txn: TxnId(txn),
                            client: ClientAddr(1),
                            tenant: TenantId(0),
                            priority: Priority(0),
                            issued_at_ns: now,
                        }),
                        now,
                        &mut out,
                    );
                    Vec::new()
                }
                Step::ReleaseHeld { nth } if !held.is_empty() => {
                    vec![held[nth % held.len()]]
                }
                Step::ReleaseHeld { .. } => Vec::new(),
                Step::ReleaseAny { lock, txn, shared } => vec![ReleaseRequest {
                    lock: LockId(lock),
                    txn: TxnId(txn),
                    mode: mode(shared),
                    client: ClientAddr(1),
                    priority: Priority(0),
                }],
                Step::Sweep => {
                    now += 1_000_000;
                    expired_leases(&dp, now, 1_000)
                }
                Step::Reboot => {
                    dp.reset();
                    program(&mut dp);
                    reference.0.clear();
                    held.clear();
                    out.clear();
                    Vec::new()
                }
            };
            for rel in releases {
                let expect = reference.consume(rel.lock, rel.txn);
                let admitted = dp.process_release(rel, now, &mut out);
                prop_assert_eq!(admitted, expect, "release {:?}", rel);
                if admitted {
                    let at = held
                        .iter()
                        .position(|h| (h.lock, h.txn) == (rel.lock, rel.txn))
                        .expect("admitted release was held");
                    held.remove(at);
                } else {
                    prop_assert!(out.is_empty(), "a filtered release acts");
                }
                // Grants the release handed on.
                note_grants(&out, &mut reference, &mut held);
                out.clear();
            }
            note_grants(&out, &mut reference, &mut held);
            out.clear();
            for l in 0..LOCKS {
                let outstanding = dp.guard_outstanding(l as usize);
                prop_assert_eq!(outstanding, reference.outstanding(LockId(l)));
                prop_assert!(outstanding <= REGION_CAP as usize);
            }
        }
    }
}

fn note_grants(out: &ActionBuf, reference: &mut Reference, held: &mut Vec<ReleaseRequest>) {
    for act in out.iter() {
        if let DpAction::SendGrant(g) = act {
            reference.credit(g.lock, g.txn);
            held.push(ReleaseRequest {
                lock: g.lock,
                txn: g.txn,
                mode: g.mode,
                client: g.client,
                priority: g.priority,
            });
        }
    }
}
