//! The switch control plane (§4.3, §4.5).
//!
//! Responsibilities, as in the paper:
//! - create/delete locks and assign memory between switch and servers,
//!   using the optimal fractional-knapsack allocation (Algorithm 3);
//! - measure per-lock request rate `r_i` and contention `c_i` from the
//!   data-plane counters;
//! - periodically poll the data plane to clear expired leases (failure
//!   and deadlock handling).

use netlock_proto::{ClientAddr, LockId, LockMode, Priority, ReleaseRequest};

use crate::dataplane::{DataPlane, Engine};
use crate::slot::Slot;

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
    place(order, capacity, max_regions)
}

/// A strawman allocator for the paper's Figure 13/14 comparison: gives
/// regions to a *random* subset of locks (seeded, deterministic),
/// ignoring popularity, with the same `max_regions` bound as
/// [`knapsack_allocate_bounded`].
pub fn random_allocate(
    stats: &[LockStats],
    capacity: u32,
    max_regions: usize,
    seed: u64,
) -> Allocation {
    // xorshift permutation, deterministic and dependency-free.
    let mut order: Vec<usize> = (0..stats.len()).collect();
    let mut state = seed | 1;
    for i in (1..order.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        order.swap(i, (state as usize) % (i + 1));
    }
    place(order.iter().map(|&i| &stats[i]), capacity, max_regions)
}

/// Walk `order`, giving each lock up to `c_i` of the slots left while
/// slots and queue regions last; every other lock stays with its home
/// server.
fn place<'a>(
    order: impl IntoIterator<Item = &'a LockStats>,
    capacity: u32,
    max_regions: usize,
) -> Allocation {
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

/// Program an allocation into an **empty** data plane. Switch lock `i`
/// gets queue `i`. The FCFS engine's regions are laid out contiguously
/// from slot 0 (no fragmentation — this is the "periodic
/// reorganization" §4.3 describes, applied at install time); the
/// priority engine's are fixed, equal partitions, so `slots` is ignored.
/// Switch locks are installed in lock order, so the directory's
/// resident list is built by appends. A lock the allocation names more
/// than once takes its last place, `in_server` after `in_switch`.
///
/// # Panics
/// If an FCFS region is non-empty or the allocation exceeds pooled
/// memory.
pub fn apply_allocation(dp: &mut DataPlane, alloc: &Allocation) {
    if let Engine::Fcfs(q) = dp.engine_mut() {
        let mut cursor = 0u32;
        for (qid, &(_, slots, _)) in alloc.in_switch.iter().enumerate() {
            q.cp_set_region(qid, cursor, cursor + slots);
            cursor += slots;
        }
    }
    let mut by_lock: Vec<usize> = (0..alloc.in_switch.len()).collect();
    by_lock.sort_unstable_by_key(|&qid| (alloc.in_switch[qid].0, qid));
    let directory = dp.directory_mut();
    for qid in by_lock {
        let (lock, _, home) = alloc.in_switch[qid];
        directory.set_switch_resident(lock, qid, home);
    }
    for &(lock, home) in &alloc.in_server {
        directory.set_server_resident(lock, home);
    }
}

/// Harvest `(r_i, c_i)` measurements from the data-plane counters for
/// every switch-resident lock, resetting the counters (one measurement
/// epoch). `epoch_secs` converts counts to rates.
pub fn harvest_stats(dp: &mut DataPlane, epoch_secs: f64) -> Vec<LockStats> {
    let resident = dp.directory().switch_resident().to_vec();
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

/// Find switch-resident lock holders whose lease has expired and emit
/// the force-release the control plane would issue for each (§4.5:
/// "the switch control plane periodically polls the data plane to clear
/// expired transactions"), in lock order. Allocates only for a holder
/// it reports.
pub fn expired_leases(dp: &DataPlane, now_ns: u64, lease_ns: u64) -> Vec<ReleaseRequest> {
    let mut out = Vec::new();
    for &(lock, qid, _home) in dp.directory().switch_resident() {
        let mut sweep = |h: Slot, priority| {
            if now_ns.saturating_sub(h.issued_at_ns) > lease_ns {
                out.push(ReleaseRequest {
                    lock,
                    txn: h.txn,
                    mode: h.mode,
                    client: ClientAddr(0), // control-plane origin
                    priority,
                });
            }
        };
        match dp.engine() {
            Engine::Fcfs(q) => {
                let mut queue = q.cp_entries(qid);
                let Some(head) = queue.next() else {
                    continue;
                };
                // Holders derived from Algorithm 2's invariant: the head
                // run of shared entries, or the single exclusive head.
                let shared = head.mode == LockMode::Shared;
                let run = queue.take_while(|s| shared && s.mode == LockMode::Shared);
                std::iter::once(head)
                    .chain(run)
                    .for_each(|h| sweep(h, Priority(0)));
            }
            // The priority engine marks holders explicitly, and a holder
            // granted on a release had its grant time written into
            // `issued_at_ns`, so the lease test is the FCFS one.
            Engine::Priority(e) => (0..e.levels())
                .flat_map(|level| e.cp_level_entries(level, qid))
                .filter(|h| h.granted)
                .for_each(|h| sweep(h, h.priority)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataplane::DpAction;
    use crate::priority::PriorityLayout;
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
        let rand = random_allocate(&stats, cap, usize::MAX, 7).objective(&stats);
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
            random_allocate(&stats, 10, usize::MAX, 3),
            random_allocate(&stats, 10, usize::MAX, 3)
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

    /// The lease sweep reports holders in lock order, and a server
    /// restart resets the overflow of that server's locks only, when
    /// the allocation's queue order (descending `r/c`) is not lock
    /// order.
    #[test]
    fn control_sweeps_follow_locks_not_queue_regions() {
        let mut dp = dp_small();
        let home = |lock: u32, rate: f64, home_server: usize| LockStats {
            home_server,
            ..st(lock, rate, 2)
        };
        let stats = [home(1, 10.0, 0), home(2, 1.0, 1), home(3, 100.0, 1)];
        let alloc = knapsack_allocate(&stats, 6);
        let queue_order: Vec<LockId> = alloc.in_switch.iter().map(|r| r.0).collect();
        assert_eq!(queue_order, [LockId(3), LockId(1), LockId(2)]);
        apply_allocation(&mut dp, &alloc);
        // Per lock, in queue order: a holder, a waiter, and a third
        // acquire that overflows the two-slot region.
        for &lock in &queue_order {
            for k in 0..3 {
                let txn = u64::from(lock.0) * 10 + k;
                dp.process_collect(acquire(lock.0, txn, 1_000), 1_000);
            }
        }
        assert!((0..3).all(|qid| dp.overflow_active(qid)));

        let expired = expired_leases(&dp, 10_000_000, 1_000);
        let holders: Vec<(LockId, TxnId)> = expired.iter().map(|r| (r.lock, r.txn)).collect();
        assert_eq!(
            holders,
            [
                (LockId(1), TxnId(10)),
                (LockId(2), TxnId(20)),
                (LockId(3), TxnId(30)),
            ]
        );

        // Server 1 is home to locks 3 and 2, in regions 0 and 2.
        dp.cp_reset_overflow_for_server(1);
        let active: Vec<bool> = (0..3).map(|qid| dp.overflow_active(qid)).collect();
        assert_eq!(active, [false, true, false]);
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

    /// A priority waiter granted on a release holds its lease from the
    /// grant, not from the issue time it carries back to its client.
    #[test]
    fn priority_lease_runs_from_grant_on_release() {
        let mut dp = DataPlane::new_priority(&PriorityLayout::new(2, 8, 2));
        apply_allocation(&mut dp, &knapsack_allocate(&[st(1, 1.0, 1)], 1));
        let lease = 1_000_000;
        dp.process_collect(acquire(1, 7, 1_000), 1_000); // immediate grant
        dp.process_collect(acquire(1, 8, 2_000), 2_000); // queued

        // An immediate grant's lease runs from its issue time.
        let expired = expired_leases(&dp, 1_000 + lease + 1, lease);
        assert_eq!(
            expired.iter().map(|r| r.txn).collect::<Vec<_>>(),
            [TxnId(7)]
        );

        // Txn 8 waits fifty leases before txn 7 releases.
        let granted_at = 50 * lease;
        let release = NetLockMsg::Release(ReleaseRequest {
            lock: LockId(1),
            txn: TxnId(7),
            mode: LockMode::Exclusive,
            client: ClientAddr(7),
            priority: Priority(0),
        });
        let acts = dp.process_collect(release, granted_at);
        let grants: Vec<_> = acts
            .iter()
            .filter_map(|a| match a {
                DpAction::SendGrant(g) => Some((g.txn, g.issued_at_ns)),
                _ => None,
            })
            .collect();
        assert_eq!(grants, [(TxnId(8), 2_000)], "grant carries the issue time");

        assert!(expired_leases(&dp, granted_at + lease / 2, lease).is_empty());
        assert!(expired_leases(&dp, granted_at + lease, lease).is_empty());
        let expired = expired_leases(&dp, granted_at + lease + 1, lease);
        assert_eq!(expired.len(), 1);
        assert_eq!(
            (expired[0].txn, expired[0].mode),
            (TxnId(8), LockMode::Exclusive)
        );
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
