//! Property tests for Algorithm 3: optimality against exhaustive search
//! on small instances (the paper's Theorem 1), feasibility on all
//! instances, and dominance over the random strawman.

use proptest::prelude::*;

use netlock_proto::LockId;
use netlock_switch::control::{
    knapsack_allocate, knapsack_allocate_bounded, random_allocate, LockStats,
};

fn arb_stats(max_locks: usize, max_c: u32) -> impl Strategy<Value = Vec<LockStats>> {
    prop::collection::vec((1u32..1000, 1u32..max_c), 1..max_locks).prop_map(|v| {
        v.into_iter()
            .enumerate()
            .map(|(i, (rate, c))| LockStats {
                lock: LockId(i as u32),
                rate: rate as f64,
                contention: c,
                home_server: i % 3,
            })
            .collect()
    })
}

/// Exhaustive optimum of the integer allocation problem.
fn brute_force(stats: &[LockStats], capacity: u32) -> f64 {
    fn rec(i: usize, left: u32, acc: f64, stats: &[LockStats], best: &mut f64) {
        if i == stats.len() {
            *best = best.max(acc);
            return;
        }
        // Optimality of greedy per-lock: either allocate fully (up to
        // min(left, c)) or any partial amount; value is linear in s, so
        // only s = 0 and s = min(left, c) matter... except capacity
        // coupling; enumerate all s to be exhaustive.
        for s in 0..=stats[i].contention.min(left) {
            rec(
                i + 1,
                left - s,
                acc + stats[i].rate * s as f64 / stats[i].contention as f64,
                stats,
                best,
            );
        }
    }
    let mut best = 0.0;
    rec(0, capacity, 0.0, stats, &mut best);
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Theorem 1: the greedy allocation attains the exhaustive optimum.
    #[test]
    fn greedy_is_optimal(stats in arb_stats(5, 6), capacity in 0u32..16) {
        let greedy = knapsack_allocate(&stats, capacity).objective(&stats);
        let best = brute_force(&stats, capacity);
        prop_assert!((greedy - best).abs() < 1e-9, "greedy {} vs optimal {}", greedy, best);
    }

    /// Feasibility on any instance: capacity and per-lock bounds hold,
    /// every lock is placed exactly once.
    #[test]
    fn allocation_feasible(stats in arb_stats(50, 64), capacity in 0u32..2000) {
        let alloc = knapsack_allocate(&stats, capacity);
        prop_assert!(alloc.slots_used() <= capacity);
        for &(lock, s, _) in &alloc.in_switch {
            let c = stats.iter().find(|x| x.lock == lock).unwrap().contention;
            prop_assert!(s >= 1 && s <= c);
        }
        prop_assert_eq!(alloc.in_switch.len() + alloc.in_server.len(), stats.len());
        let mut seen: Vec<u32> = alloc
            .in_switch
            .iter()
            .map(|&(l, _, _)| l.0)
            .chain(alloc.in_server.iter().map(|&(l, _)| l.0))
            .collect();
        seen.sort_unstable();
        seen.dedup();
        prop_assert_eq!(seen.len(), stats.len(), "every lock placed exactly once");
    }

    /// The region-bounded variant respects its bound and never beats
    /// the unbounded objective.
    #[test]
    fn bounded_respects_regions(stats in arb_stats(40, 16), capacity in 0u32..500, max_regions in 0usize..20) {
        let bounded = knapsack_allocate_bounded(&stats, capacity, max_regions);
        prop_assert!(bounded.in_switch.len() <= max_regions);
        let unbounded = knapsack_allocate(&stats, capacity);
        prop_assert!(bounded.objective(&stats) <= unbounded.objective(&stats) + 1e-9);
    }

    /// A region bound keeps the first `max_regions` switch locks of the
    /// unbounded random allocation, slots included, and hands every
    /// other lock to its server.
    #[test]
    fn bounded_random_is_a_prefix(stats in arb_stats(40, 16), capacity in 0u32..500, max_regions in 0usize..20, seed in any::<u64>()) {
        let bounded = random_allocate(&stats, capacity, max_regions, seed);
        let unbounded = random_allocate(&stats, capacity, usize::MAX, seed);
        let kept = unbounded.in_switch.len().min(max_regions);
        prop_assert_eq!(&bounded.in_switch[..], &unbounded.in_switch[..kept]);
        prop_assert_eq!(bounded.in_switch.len() + bounded.in_server.len(), stats.len());
    }

    /// Greedy never loses to random (optimality implies dominance).
    #[test]
    fn greedy_dominates_random(stats in arb_stats(30, 16), capacity in 0u32..200, seed in any::<u64>()) {
        let greedy = knapsack_allocate(&stats, capacity).objective(&stats);
        let random = random_allocate(&stats, capacity, usize::MAX, seed).objective(&stats);
        prop_assert!(greedy >= random - 1e-9, "greedy {} vs random {}", greedy, random);
    }
}
