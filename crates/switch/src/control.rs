//! The switch control plane (§4.3, §4.5).
//!
//! Responsibilities, as in the paper:
//! - create/delete locks and assign memory between switch and servers,
//!   using the optimal fractional-knapsack allocation (Algorithm 3);
//! - measure per-lock request rate `r_i` and contention `c_i` from the
//!   data-plane counters;
//! - move locks between switch and servers when popularity changes,
//!   draining queues before any move;
//! - periodically poll the data plane to clear expired leases (failure
//!   and deadlock handling).

use netlock_proto::{ClientAddr, LockId, LockMode, Priority, ReleaseRequest};

use crate::dataplane::{DataPlane, Engine};
use crate::directory::Residence;

/// Measured workload statistics for one lock.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct LockStats {
    /// The lock.
    pub lock: LockId,
    /// Request rate `r_i` (requests per second, or any consistent unit —
    /// only ratios matter to the allocator).
    pub rate: f64,
    /// Maximum contention `c_i`: the most concurrent outstanding
    /// requests observed/expected for this lock. Never zero.
    pub contention: u32,
    /// The lock's home server.
    pub home_server: usize,
}

impl LockStats {
    /// Stats for a uniform workload over `locks`: unit rate, the same
    /// `contention` everywhere, homes round-robin by lock id over
    /// `servers` lock servers.
    pub fn uniform(
        locks: impl IntoIterator<Item = LockId>,
        contention: u32,
        servers: usize,
    ) -> Vec<LockStats> {
        locks
            .into_iter()
            .map(|lock| LockStats {
                lock,
                rate: 1.0,
                contention,
                home_server: lock.0 as usize % servers,
            })
            .collect()
    }
}

/// Result of the memory allocation.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Allocation {
    /// Locks placed in the switch: `(lock, slots, home_server)`, in
    /// allocation (descending `r/c`) order.
    pub in_switch: Vec<(LockId, u32, usize)>,
    /// Locks left to their home servers.
    pub in_server: Vec<(LockId, usize)>,
}

impl Allocation {
    /// Total switch slots consumed.
    pub fn slots_used(&self) -> u32 {
        self.in_switch.iter().map(|&(_, s, _)| s).sum()
    }

    /// The objective value `Σ r_i · s_i / c_i` this allocation attains
    /// (the request rate the switch is guaranteed to absorb).
    pub fn objective(&self, stats: &[LockStats]) -> f64 {
        self.in_switch
            .iter()
            .map(|&(lock, s, _)| {
                let st = stats
                    .iter()
                    .find(|st| st.lock == lock)
                    .expect("allocation references unknown lock");
                st.rate * s as f64 / st.contention as f64
            })
            .sum()
    }
}

/// Algorithm 3: optimal memory allocation.
///
/// Maximizes `Σ r_i·s_i/c_i` subject to `Σ s_i ≤ capacity`, `s_i ≤ c_i`
/// by allocating slots to locks in decreasing `r_i/c_i` order. Ties are
/// broken by lock id so the allocation is deterministic.
pub fn knapsack_allocate(stats: &[LockStats], capacity: u32) -> Allocation {
    knapsack_allocate_bounded(stats, capacity, usize::MAX)
}

/// [`knapsack_allocate`] with a bound on the number of switch-resident
/// locks — the match-action table and per-region registers only
/// describe `max_regions` queues (10 000 in the paper-default layout),
/// so slots past that limit stay with the servers.
pub fn knapsack_allocate_bounded(
    stats: &[LockStats],
    capacity: u32,
    max_regions: usize,
) -> Allocation {
    let mut order: Vec<&LockStats> = stats.iter().collect();
    order.sort_by(|a, b| {
        let va = a.rate / a.contention.max(1) as f64;
        let vb = b.rate / b.contention.max(1) as f64;
        vb.partial_cmp(&va)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.lock.cmp(&b.lock))
    });
    let mut alloc = Allocation::default();
    let mut available = capacity;
    for st in order {
        debug_assert!(st.contention > 0, "contention must be at least 1");
        let s = available.min(st.contention.max(1));
        if s > 0 && alloc.in_switch.len() < max_regions {
            alloc.in_switch.push((st.lock, s, st.home_server));
            available -= s;
        } else {
            alloc.in_server.push((st.lock, st.home_server));
        }
    }
    alloc
}

/// A strawman allocator for the paper's Figure 13/14 comparison: gives
/// regions to a *random* subset of locks (seeded, deterministic),
/// ignoring popularity.
pub fn random_allocate(stats: &[LockStats], capacity: u32, seed: u64) -> Allocation {
    // xorshift permutation, deterministic and dependency-free.
    let mut order: Vec<usize> = (0..stats.len()).collect();
    let mut state = seed | 1;
    for i in (1..order.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        order.swap(i, (state as usize) % (i + 1));
    }
    let mut alloc = Allocation::default();
    let mut available = capacity;
    for &i in &order {
        let st = &stats[i];
        let s = available.min(st.contention.max(1));
        if s > 0 {
            alloc.in_switch.push((st.lock, s, st.home_server));
            available -= s;
        } else {
            alloc.in_server.push((st.lock, st.home_server));
        }
    }
    alloc
}

/// Program an allocation into an **empty** FCFS data plane: regions are
/// laid out contiguously from slot 0 (no fragmentation — this is the
/// "periodic reorganization" §4.3 describes, applied at install time).
///
/// # Panics
/// If the data plane is not FCFS, a region is non-empty, or the
/// allocation exceeds pooled memory.
pub fn apply_allocation(dp: &mut DataPlane, alloc: &Allocation) {
    let Engine::Fcfs(_) = dp.engine() else {
        panic!("apply_allocation requires the FCFS engine");
    };
    let mut cursor = 0u32;
    for (qid, &(lock, slots, home)) in alloc.in_switch.iter().enumerate() {
        let Engine::Fcfs(q) = dp.engine_mut() else {
            unreachable!()
        };
        q.cp_set_region(qid, cursor, cursor + slots);
        cursor += slots;
        dp.directory_mut().set_switch_resident(lock, qid, home);
    }
    for &(lock, home) in &alloc.in_server {
        dp.directory_mut().set_server_resident(lock, home);
    }
}

/// Harvest `(r_i, c_i)` measurements from the data-plane counters for
/// every switch-resident lock, resetting the counters (one measurement
/// epoch). `epoch_secs` converts counts to rates.
pub fn harvest_stats(dp: &mut DataPlane, epoch_secs: f64) -> Vec<LockStats> {
    let resident = dp.directory().switch_resident();
    let mut out = Vec::with_capacity(resident.len());
    for (lock, qid, home) in resident {
        let Engine::Fcfs(q) = dp.engine_mut() else {
            return out;
        };
        let reqs = q.cp_take_req_count(qid);
        let peak = q.cp_take_max_count(qid);
        out.push(LockStats {
            lock,
            rate: reqs as f64 / epoch_secs.max(1e-9),
            contention: peak.max(1),
            home_server: home,
        });
    }
    out
}

/// One step of the lock-migration plan between two allocations.
#[derive(Clone, PartialEq, Debug)]
pub enum MigrationOp {
    /// Move a lock out of the switch to its home server: start draining
    /// (new requests buffer in q2), hand ownership over once q1 empties.
    Demote {
        /// Lock to demote.
        lock: LockId,
    },
    /// Move a server lock into the switch at region `qid`, `[left,right)`.
    Promote {
        /// Lock to promote.
        lock: LockId,
        /// Destination queue region.
        qid: usize,
        /// Region start (global slot index).
        left: u32,
        /// Region end (exclusive).
        right: u32,
        /// The lock's home server (q2 owner after promotion).
        home_server: usize,
    },
}

/// Diff the current directory against a target allocation and produce
/// the migration steps. Locks whose region size changes are demoted and
/// re-promoted (drain-then-move, as the paper requires).
///
/// The returned ops list demotions first — they free the memory the
/// promotions assume.
pub fn plan_migration(dp: &DataPlane, target: &Allocation) -> Vec<MigrationOp> {
    let mut ops = Vec::new();
    let current = dp.directory().switch_resident();
    // Target layout: lock → (qid, left, right, home).
    let mut cursor = 0u32;
    let mut target_regions = Vec::new();
    for (qid, &(lock, slots, home)) in target.in_switch.iter().enumerate() {
        target_regions.push((lock, qid, cursor, cursor + slots, home));
        cursor += slots;
    }
    // Demote anything not in the target set or whose region changed.
    for &(lock, qid, _home) in &current {
        let keep = target_regions.iter().any(|&(l, tq, tl, tr, _)| {
            if l != lock {
                return false;
            }
            let Engine::Fcfs(q) = dp.engine() else {
                return false;
            };
            let v = q.cp_region(qid);
            tq == qid && tl == v.left && tr == v.right
        });
        if !keep {
            ops.push(MigrationOp::Demote { lock });
        }
    }
    // Promote anything not currently resident with the right region.
    for &(lock, qid, left, right, home) in &target_regions {
        let already = dp
            .directory()
            .get(lock)
            .map(|e| {
                if e.residence != (Residence::Switch { qid }) {
                    return false;
                }
                let Engine::Fcfs(q) = dp.engine() else {
                    return false;
                };
                let v = q.cp_region(qid);
                v.left == left && v.right == right
            })
            .unwrap_or(false);
        if !already {
            ops.push(MigrationOp::Promote {
                lock,
                qid,
                left,
                right,
                home_server: home,
            });
        }
    }
    ops
}

/// Find switch-resident lock holders whose lease has expired and emit
/// the force-release the control plane would issue for each (§4.5:
/// "the switch control plane periodically polls the data plane to clear
/// expired transactions").
///
/// Holders in the FCFS engine are derived from Algorithm 2's invariant:
/// the head run of shared entries, or the single exclusive head.
pub fn expired_leases(dp: &DataPlane, now_ns: u64, lease_ns: u64) -> Vec<ReleaseRequest> {
    let mut out = Vec::new();
    match dp.engine() {
        Engine::Fcfs(q) => {
            for (lock, qid, _home) in dp.directory().switch_resident() {
                // Under handback suppression (§4.5) the backup still
                // grants: this queue's head was never granted, so it
                // holds no lease to expire.
                if dp.region_suppressed(qid) {
                    continue;
                }
                let entries = q.cp_entries(qid);
                let Some(head) = entries.first() else {
                    continue;
                };
                // Holders derived from Algorithm 2's invariant: the head
                // run of shared entries, or the single exclusive head.
                let holders: &[crate::slot::Slot] = match head.mode {
                    LockMode::Exclusive => &entries[..1],
                    LockMode::Shared => {
                        let n = entries
                            .iter()
                            .take_while(|s| s.mode == LockMode::Shared)
                            .count();
                        &entries[..n]
                    }
                };
                for h in holders {
                    if now_ns.saturating_sub(h.issued_at_ns) > lease_ns {
                        out.push(ReleaseRequest {
                            lock,
                            txn: h.txn,
                            mode: h.mode,
                            client: ClientAddr(0), // control-plane origin
                            priority: Priority(0),
                        });
                    }
                }
            }
        }
        Engine::Priority(e) => {
            // The priority engine marks holders explicitly.
            for (lock, qid, _home) in dp.directory().switch_resident() {
                for level in 0..e.levels() {
                    for h in e.cp_level_entries(level, qid) {
                        if h.granted && now_ns.saturating_sub(h.granted_at_ns) > lease_ns {
                            out.push(ReleaseRequest {
                                lock,
                                txn: h.txn,
                                mode: h.mode,
                                client: ClientAddr(0),
                                priority: h.priority,
                            });
                        }
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared_queue::SharedQueueLayout;
    use netlock_proto::{LockRequest, NetLockMsg, TenantId, TxnId};

    fn st(lock: u32, rate: f64, contention: u32) -> LockStats {
        LockStats {
            lock: LockId(lock),
            rate,
            contention,
            home_server: 0,
        }
    }

    #[test]
    fn paper_figure7_example() {
        // Lock 1: two clients at 100 req/s each (r=200, c=2);
        // lock 2: one client at 10 req/s (r=10, c=1); switch has 2 slots.
        let stats = vec![st(1, 200.0, 2), st(2, 10.0, 1)];
        let alloc = knapsack_allocate(&stats, 2);
        assert_eq!(alloc.in_switch, vec![(LockId(1), 2, 0)]);
        assert_eq!(alloc.in_server, vec![(LockId(2), 0)]);
        // The optimal allocation absorbs all 200 req/s of lock 1.
        assert_eq!(alloc.objective(&stats), 200.0);
    }

    #[test]
    fn allocation_respects_capacity_and_contention() {
        let stats = vec![st(1, 50.0, 3), st(2, 100.0, 10), st(3, 40.0, 1)];
        let alloc = knapsack_allocate(&stats, 8);
        assert!(alloc.slots_used() <= 8);
        for &(lock, s, _) in &alloc.in_switch {
            let c = stats.iter().find(|x| x.lock == lock).unwrap().contention;
            assert!(s <= c, "never allocate more than c_i");
        }
        // Highest r/c first: lock 3 (40), lock 1 (16.7), lock 2 (10).
        assert_eq!(alloc.in_switch[0].0, LockId(3));
        assert_eq!(alloc.in_switch[1], (LockId(1), 3, 0));
        // Remaining 4 slots go to lock 2 (partial).
        assert_eq!(alloc.in_switch[2], (LockId(2), 4, 0));
    }

    #[test]
    fn knapsack_beats_random_on_skew() {
        // Skewed: a few hot locks, many cold ones.
        let mut stats = Vec::new();
        for i in 0..5 {
            stats.push(st(i, 1000.0, 4));
        }
        for i in 5..100 {
            stats.push(st(i, 1.0, 4));
        }
        let cap = 20;
        let good = knapsack_allocate(&stats, cap).objective(&stats);
        let rand = random_allocate(&stats, cap, 7).objective(&stats);
        assert!(
            good > rand * 2.0,
            "knapsack {good} should beat random {rand} on skew"
        );
    }

    #[test]
    fn knapsack_optimality_vs_exhaustive() {
        // Brute-force all integer allocations for small instances and
        // confirm Algorithm 3 attains the maximum objective.
        let stats = vec![st(1, 9.0, 3), st(2, 8.0, 2), st(3, 3.0, 1), st(4, 10.0, 4)];
        let cap = 6u32;
        let algo = knapsack_allocate(&stats, cap).objective(&stats);

        let mut best = 0.0f64;
        let caps: Vec<u32> = stats.iter().map(|s| s.contention).collect();
        fn rec(i: usize, left: u32, acc: f64, stats: &[LockStats], caps: &[u32], best: &mut f64) {
            if i == stats.len() {
                *best = best.max(acc);
                return;
            }
            for s in 0..=caps[i].min(left) {
                rec(
                    i + 1,
                    left - s,
                    acc + stats[i].rate * s as f64 / stats[i].contention as f64,
                    stats,
                    caps,
                    best,
                );
            }
        }
        rec(0, cap, 0.0, &stats, &caps, &mut best);
        assert!(
            (algo - best).abs() < 1e-9,
            "algorithm {algo} vs exhaustive {best}"
        );
    }

    #[test]
    fn zero_capacity_sends_everything_to_servers() {
        let stats = vec![st(1, 5.0, 2), st(2, 1.0, 1)];
        let alloc = knapsack_allocate(&stats, 0);
        assert!(alloc.in_switch.is_empty());
        assert_eq!(alloc.in_server.len(), 2);
    }

    #[test]
    fn random_allocate_is_deterministic() {
        let stats: Vec<LockStats> = (0..50).map(|i| st(i, i as f64, 2)).collect();
        assert_eq!(
            random_allocate(&stats, 10, 3),
            random_allocate(&stats, 10, 3)
        );
    }

    fn dp_small() -> DataPlane {
        DataPlane::new_fcfs(&SharedQueueLayout::small(2, 16, 8))
    }

    fn acquire(lock: u32, txn: u64, at: u64) -> NetLockMsg {
        NetLockMsg::Acquire(LockRequest {
            lock: LockId(lock),
            mode: LockMode::Exclusive,
            txn: TxnId(txn),
            client: ClientAddr(txn as u32),
            tenant: TenantId(0),
            priority: Priority(0),
            issued_at_ns: at,
        })
    }

    #[test]
    fn apply_allocation_programs_regions_contiguously() {
        let mut dp = dp_small();
        let stats = vec![st(1, 10.0, 3), st(2, 100.0, 2), st(3, 0.1, 5)];
        let alloc = knapsack_allocate(&stats, 6);
        apply_allocation(&mut dp, &alloc);
        // lock 2 (r/c=50) first: region [0,2); lock 1 (3.3): [2,5);
        // lock 3 (0.02): 1 remaining slot [5,6).
        let Engine::Fcfs(q) = dp.engine() else {
            unreachable!()
        };
        let resident = dp.directory().switch_resident();
        assert_eq!(resident.len(), 3);
        let v2 = q.cp_region(0);
        assert_eq!((v2.left, v2.right), (0, 2));
        let v1 = q.cp_region(1);
        assert_eq!((v1.left, v1.right), (2, 5));
        let v3 = q.cp_region(2);
        assert_eq!((v3.left, v3.right), (5, 6));
    }

    #[test]
    fn harvest_measures_and_resets() {
        let mut dp = dp_small();
        let alloc = knapsack_allocate(&[st(1, 1.0, 4)], 4);
        apply_allocation(&mut dp, &alloc);
        for t in 0..3 {
            dp.process_collect(acquire(1, t, 0), 0);
        }
        let stats = harvest_stats(&mut dp, 1.0);
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].rate, 3.0);
        assert_eq!(stats[0].contention, 3);
        // Second harvest sees a fresh epoch.
        let stats = harvest_stats(&mut dp, 1.0);
        assert_eq!(stats[0].rate, 0.0);
        assert_eq!(stats[0].contention, 1);
    }

    #[test]
    fn plan_migration_demotes_and_promotes() {
        let mut dp = dp_small();
        let alloc1 = knapsack_allocate(&[st(1, 100.0, 4), st(2, 1.0, 4)], 4);
        apply_allocation(&mut dp, &alloc1);
        // New workload: lock 2 hot, lock 1 cold.
        let alloc2 = knapsack_allocate(&[st(1, 1.0, 4), st(2, 100.0, 4)], 4);
        let ops = plan_migration(&dp, &alloc2);
        assert!(ops.contains(&MigrationOp::Demote { lock: LockId(1) }));
        assert!(ops.iter().any(|op| matches!(
            op,
            MigrationOp::Promote { lock, .. } if *lock == LockId(2)
        )));
    }

    #[test]
    fn plan_migration_noop_when_unchanged() {
        let mut dp = dp_small();
        let alloc = knapsack_allocate(&[st(1, 100.0, 4)], 4);
        apply_allocation(&mut dp, &alloc);
        assert!(plan_migration(&dp, &alloc).is_empty());
    }

    #[test]
    fn expired_leases_finds_stale_holders() {
        let mut dp = dp_small();
        let alloc = knapsack_allocate(&[st(1, 1.0, 4)], 4);
        apply_allocation(&mut dp, &alloc);
        dp.process_collect(acquire(1, 7, 1_000), 1_000);
        dp.process_collect(acquire(1, 8, 2_000), 2_000); // queued, not a holder
        let lease = 1_000_000;
        assert!(expired_leases(&dp, 500_000, lease).is_empty());
        let expired = expired_leases(&dp, 2_000_000, lease);
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].txn, TxnId(7));
        assert_eq!(expired[0].mode, LockMode::Exclusive);
    }

    #[test]
    fn expired_leases_shared_holders_all_reported() {
        let mut dp = dp_small();
        let alloc = knapsack_allocate(&[st(1, 1.0, 4)], 4);
        apply_allocation(&mut dp, &alloc);
        for t in 0..2 {
            dp.process_collect(
                NetLockMsg::Acquire(LockRequest {
                    lock: LockId(1),
                    mode: LockMode::Shared,
                    txn: TxnId(t),
                    client: ClientAddr(t as u32),
                    tenant: TenantId(0),
                    priority: Priority(0),
                    issued_at_ns: 0,
                }),
                0,
            );
        }
        let expired = expired_leases(&dp, 10_000_000, 1_000);
        assert_eq!(expired.len(), 2, "both shared holders expired");
    }
}
