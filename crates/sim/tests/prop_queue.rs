//! Property tests for the calendar queue: pop order must equal a
//! reference binary heap over `(time, seq)` on arbitrary monotone
//! schedules — the determinism contract the whole simulator rests on.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;

use netlock_sim::{EventQueue, SimTime};

/// One scripted operation: push an event `delay` ns after the last
/// popped time (`true`) or pop (`false`).
fn ops() -> impl Strategy<Value = Vec<(bool, u64)>> {
    prop::collection::vec(
        (
            any::<bool>(),
            prop_oneof![
                // Hot path: sub-bucket and few-bucket delays.
                0u64..20_000,
                // Cross-bucket, still inside the wheel horizon.
                0u64..2_000_000,
                // Beyond the horizon (overflow heap).
                0u64..200_000_000,
            ],
        ),
        1..400,
    )
}

/// Slab accounting, checked after every operation: the slots not on the
/// free list are the ring-resident events, and the slab has never grown
/// past their high-water mark `peak` — a slot is only ever added when
/// every existing one is occupied.
fn check_slab(q: &EventQueue<u64>, peak: &mut usize) {
    let (slots, resident) = (q.slab_slots(), q.slab_slots() - q.free_slots());
    assert!(
        resident <= q.len(),
        "{resident} slots for {} events",
        q.len()
    );
    *peak = (*peak).max(resident);
    assert!(slots <= *peak, "{slots} slots, resident peak {peak}");
}

proptest! {
    /// Interleaved pushes and pops drain in exactly the reference
    /// heap's `(at, seq)` order.
    #[test]
    fn matches_reference_heap(script in ops()) {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut r: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        let mut peak = 0usize;
        for (push, delay) in script {
            if push {
                let at = SimTime(now + delay);
                q.push(at, seq, seq);
                r.push(Reverse((at, seq)));
                seq += 1;
            } else {
                let got = q.pop().map(|(at, s, _)| (at, s));
                let want = r.pop().map(|Reverse(k)| k);
                prop_assert_eq!(got, want);
                if let Some((at, _)) = got {
                    now = at.0;
                }
            }
            check_slab(&q, &mut peak);
        }
        while let Some(Reverse((at, s))) = r.pop() {
            prop_assert_eq!(q.pop(), Some((at, s, s)));
        }
        prop_assert!(q.is_empty());
        prop_assert_eq!(q.pop(), None);
        prop_assert_eq!(q.free_slots(), q.slab_slots(), "a drained queue leaks no slot");
    }

    /// `peek_at` never changes what pops next, even when it advances
    /// the internal cursor and pushes land at the current instant.
    #[test]
    fn peek_is_transparent(script in ops()) {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut r: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        for (push, delay) in script {
            prop_assert_eq!(q.peek_at(), r.peek().map(|Reverse((at, _))| *at));
            if push {
                let at = SimTime(now + delay);
                q.push(at, seq, seq);
                r.push(Reverse((at, seq)));
                seq += 1;
            } else {
                let got = q.pop().map(|(at, s, _)| (at, s));
                prop_assert_eq!(got, r.pop().map(|Reverse(k)| k));
                if let Some((at, _)) = got {
                    now = at.0;
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The same accounting across retunes: the script is replayed, every
    /// other pass as pops only, with its delays scaled by a different
    /// power of two in each of four phases, so the width formula swings
    /// and the wheel is rebuilt with events resident in every tier.
    #[test]
    fn slab_is_bounded_by_resident_peak_across_retunes(script in ops()) {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut r: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        let mut peak = 0usize;
        let pushes = script.iter().filter(|(push, _)| *push).count() as u64;
        prop_assume!(pushes > 0);
        // Four phases of ~6 000 pushes, each longer than a retune period.
        let passes = 2 * (24_000 / pushes + 1);
        for pass in 0..passes {
            let scale = |d: u64| match pass * 4 / passes {
                0 => d,
                1 => d >> 8,
                2 => d << 6,
                _ => d >> 4,
            };
            for &(push, delay) in &script {
                if push && pass % 2 == 0 {
                    let at = SimTime(now + scale(delay));
                    q.push(at, seq, seq);
                    r.push(Reverse((at, seq)));
                    seq += 1;
                } else {
                    let got = q.pop().map(|(at, s, _)| (at, s));
                    prop_assert_eq!(got, r.pop().map(|Reverse(k)| k));
                    if let Some((at, _)) = got {
                        now = at.0;
                    }
                }
                check_slab(&q, &mut peak);
            }
        }
        while let Some(Reverse((at, s))) = r.pop() {
            prop_assert_eq!(q.pop(), Some((at, s, s)));
            check_slab(&q, &mut peak);
        }
        prop_assert_eq!(q.len(), 0);
        prop_assert_eq!(q.free_slots(), q.slab_slots(), "a drained queue leaks no slot");
    }
}
