//! The pending-event queue: a self-tuning calendar queue (bucketed
//! timing wheel) with an overflow heap.
//!
//! The simulator's hot path is `push` + `pop` of one event per
//! dispatched packet or timer — hundreds of thousands to millions of
//! operations per figure point. A global `BinaryHeap` pays
//! `O(log n)` comparisons on every operation over the *whole* pending
//! set; the calendar queue instead hashes each event into a
//! fixed-width time bucket (`O(1)` insert for anything within the
//! wheel horizon) and only keeps a heap over the *current bucket*,
//! whose occupancy is a small slice of the pending set.
//!
//! A calendar queue is only as good as its bucket width: too wide and
//! every pending event piles into one bucket (the structure degrades
//! to a heap plus bookkeeping); too narrow and the horizon shrinks
//! until everything lands in the overflow heap. Both failure modes
//! showed up in the PR 2 microbench, so the width is no longer a
//! compile-time constant. The queue samples the push-time delay
//! distribution (`at - last_pop`) and every `RETUNE_PERIOD` pushes
//! recomputes the bucket-width exponent so that the pending set
//! spreads at a few events per bucket; when the exponent moves by two
//! or more (hysteresis against thrash) the wheel is rebuilt at the new
//! width. Sparse wheels are cheap to walk: an occupancy bitmap lets
//! the cursor jump straight to the next non-empty bucket instead of
//! sweeping empties one at a time.
//!
//! Ordering contract (identical to the heap it replaces): events pop
//! in ascending `(at, seq)` order, so same-instant events are FIFO by
//! insertion sequence and runs remain bit-for-bit deterministic —
//! retuning moves events between tiers but never reorders keys. The
//! equivalence tests at the bottom of this file (and the property
//! tests in `tests/prop_queue.rs`) check the contract against a
//! reference `BinaryHeap` on randomized and adversarial schedules.
//!
//! Layout:
//! - `due`: the drained contents of the cursor's bucket, sorted once
//!   (descending, popped from the back) instead of heapified — a
//!   bucket holds only a handful of events, so one small sort beats
//!   per-event heap sifts.
//! - `late`: a small heap for events at or before the cursor's bucket
//!   that arrive *after* it was drained (late pushes at the current
//!   instant land here even if the cursor has run ahead — see
//!   `push`); almost always empty on the hot path.
//! - `ring`: `N_BUCKETS` bucket heads (`u32` slot indices, 16 KB), each
//!   covering `2^shift` ns; an event within the wheel horizon is
//!   chained onto its bucket's unsorted list.
//! - `slab` + `next` + `free`: the one store behind every bucket. An
//!   entry occupies a slab slot; `next` (parallel to `slab`) links a
//!   bucket's slots, or the free slots into a LIFO list, so a push
//!   writes the slot freed last (still in cache) and a drain walks one
//!   short chain into `due`. The slab grows only when every slot is
//!   occupied and never shrinks: the queue's footprint is the peak of
//!   ring-resident events (64 B each for the simulator's event type),
//!   not the wheel, whose per-bucket `Vec`s cost the *nodes* their
//!   cache lines (DESIGN.md §10).
//! - `overflow`: a heap for events beyond the horizon (lease-sweep and
//!   control ticks, one retry timer per transaction-client worker).
//!   It stays cheap only while it stays small: a node that parks one
//!   far-future timer per *request* turns every push and migration
//!   into an `O(log n)` sift over that whole backlog, so nodes keep
//!   such timers per actor, not per request. Events migrate from
//!   `overflow` into the wheel as the cursor advances.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Initial bucket width exponent: each bucket spans `2^shift` ns
/// (≈4.1 µs before the first retune).
const INITIAL_SHIFT: u32 = 12;
/// Bounds for the tuned exponent. `0` is a 1 ns bucket; `40` (≈18
/// minutes per bucket) is far beyond any delay the racks schedule.
const MIN_SHIFT: u32 = 0;
const MAX_SHIFT: u32 = 40;
/// Number of wheel buckets (must be a power of two). Horizon:
/// `N_BUCKETS << shift`.
const N_BUCKETS: usize = 4_096;
/// Words in the occupancy bitmap (64 buckets per word).
const N_WORDS: usize = N_BUCKETS / 64;
/// Pushes between width recomputations. Large enough that the stats
/// smooth over bursts, small enough to adapt within one warmup.
const RETUNE_PERIOD: u32 = 4_096;
/// Width-formula numerator: the pending set spreads at roughly one
/// event per occupied bucket, so a drain is an append of one or two
/// entries and the sort is a no-op.
const WIDTH_NUMERATOR: u64 = 2;
/// End of a slot chain: an empty bucket or free list, or a last slot.
const NIL: u32 = u32::MAX;

struct Entry<T> {
    at: SimTime,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A monotone priority queue over `(SimTime, seq)` keys.
///
/// "Monotone" is the one extra constraint over a general heap: a push
/// must not be earlier than the last popped timestamp (discrete-event
/// simulation never schedules into the past; [`crate::Simulator`]
/// debug-asserts this). Same-instant pushes after a pop are allowed
/// and ordered by `seq`.
pub struct EventQueue<T> {
    /// Current bucket width exponent (buckets span `2^shift` ns).
    shift: u32,
    /// Absolute bucket index (`at >> shift`) of the cursor.
    cur_abs: u64,
    /// The cursor bucket's drained events, sorted descending by
    /// `(at, seq)` and popped from the back.
    due: Vec<Entry<T>>,
    /// Events at `abs <= cur_abs` that arrived after the cursor's
    /// bucket was drained. Usually empty.
    late: BinaryHeap<Reverse<Entry<T>>>,
    /// The wheel: bucket `abs & (N_BUCKETS-1)` heads the chain of slab
    /// slots holding events for the unique `abs` in
    /// `(cur_abs, cur_abs + N_BUCKETS)` mapping to it.
    ring: Box<[u32]>,
    /// Every ring-resident event; `None` slots are on the free list.
    slab: Vec<Option<Entry<T>>>,
    /// Per slot: the next slot of its bucket's chain or the free list.
    next: Vec<u32>,
    /// Head of the LIFO free list.
    free: u32,
    /// One bit per ring bucket: set iff the bucket is non-empty. Lets
    /// `seek` jump over runs of empty buckets in O(words scanned).
    occupied: [u64; N_WORDS],
    /// Total events stored in `ring`.
    ring_len: usize,
    /// Events at or beyond the wheel horizon.
    overflow: BinaryHeap<Reverse<Entry<T>>>,
    /// Timestamp of the most recent pop — the "now" that push delays
    /// are measured against, and the anchor the wheel is rebuilt at.
    last_pop_at: u64,
    /// Sum of `at - last_pop_at` over pushes since the last retune.
    delay_sum: u64,
    /// Pushes since the last retune.
    pushes_since_retune: u32,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue with the cursor at time zero.
    pub fn new() -> EventQueue<T> {
        EventQueue {
            shift: INITIAL_SHIFT,
            cur_abs: 0,
            due: Vec::new(),
            late: BinaryHeap::new(),
            ring: vec![NIL; N_BUCKETS].into_boxed_slice(),
            slab: Vec::new(),
            next: Vec::new(),
            free: NIL,
            occupied: [0; N_WORDS],
            ring_len: 0,
            overflow: BinaryHeap::new(),
            last_pop_at: 0,
            delay_sum: 0,
            pushes_since_retune: 0,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.due.len() + self.late.len() + self.ring_len + self.overflow.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Insert an event. `seq` must be unique per queue (the simulator
    /// uses a monotone counter); it breaks ties among equal `at`.
    pub fn push(&mut self, at: SimTime, seq: u64, item: T) {
        self.delay_sum = self
            .delay_sum
            .saturating_add(at.0.saturating_sub(self.last_pop_at));
        self.pushes_since_retune += 1;
        if self.pushes_since_retune == RETUNE_PERIOD {
            self.maybe_retune();
        }
        self.place(Entry { at, seq, item });
    }

    /// Remove and return the earliest event as `(at, seq, item)`.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        self.seek();
        let from_late = match (self.due.last(), self.late.peek()) {
            (Some(d), Some(Reverse(l))) => l < d,
            (None, Some(_)) => true,
            (Some(_), None) => false,
            (None, None) => return None,
        };
        let e = if from_late {
            self.late.pop().expect("peeked").0
        } else {
            self.due.pop().expect("peeked")
        };
        self.last_pop_at = e.at.0;
        Some((e.at, e.seq, e.item))
    }

    /// Drain the maximal run of events sharing the earliest pending
    /// timestamp into `out` (appended in ascending `(at, seq)` order),
    /// provided that timestamp is at or before `deadline`. Returns the
    /// number of events appended (0 if nothing is due).
    ///
    /// Completeness: after `seek`, `due` and `late` together hold
    /// *every* pending event whose bucket index is `<= cur_abs` — ring
    /// events are strictly later buckets and overflow events are beyond
    /// the horizon (admitted by `seek`). The head timestamp's bucket is
    /// `<= cur_abs`, so the whole same-instant run is already resident
    /// in those two tiers and one interleaved drain (by `seq`) yields
    /// it without touching the cursor again.
    pub fn pop_run(&mut self, deadline: SimTime, out: &mut Vec<(SimTime, u64, T)>) -> usize {
        self.seek();
        let head_at = match (self.due.last(), self.late.peek()) {
            (Some(d), Some(Reverse(l))) => d.at.min(l.at),
            (Some(d), None) => d.at,
            (None, Some(Reverse(l))) => l.at,
            (None, None) => return 0,
        };
        if head_at > deadline {
            return 0;
        }
        let start = out.len();
        loop {
            let from_late = match (self.due.last(), self.late.peek()) {
                (Some(d), Some(Reverse(l))) => l < d,
                (None, Some(_)) => true,
                (Some(_), None) => false,
                (None, None) => break,
            };
            if from_late {
                if self.late.peek().expect("matched above").0.at != head_at {
                    break;
                }
                let e = self.late.pop().expect("peeked").0;
                out.push((e.at, e.seq, e.item));
            } else {
                if self.due.last().expect("matched above").at != head_at {
                    break;
                }
                let e = self.due.pop().expect("peeked");
                out.push((e.at, e.seq, e.item));
            }
        }
        self.last_pop_at = head_at.0;
        out.len() - start
    }

    /// Timestamp of the earliest event without removing it.
    ///
    /// Takes `&mut self` because it may advance the cursor; the
    /// logical contents are unchanged.
    pub fn peek_at(&mut self) -> Option<SimTime> {
        self.seek();
        match (self.due.last(), self.late.peek()) {
            (Some(d), Some(Reverse(l))) => Some(d.at.min(l.at)),
            (Some(d), None) => Some(d.at),
            (None, Some(Reverse(l))) => Some(l.at),
            (None, None) => None,
        }
    }

    /// Route one entry to the tier its bucket index demands.
    ///
    /// `abs <= cur_abs` happens when the cursor ran ahead hunting
    /// for the next event (peek/pop across empty buckets) and a
    /// same-instant event is then scheduled: it must still pop
    /// before everything in later buckets, so it joins `late`.
    fn place(&mut self, entry: Entry<T>) {
        let abs = entry.at.0 >> self.shift;
        if abs <= self.cur_abs {
            self.late.push(Reverse(entry));
        } else if abs - self.cur_abs < N_BUCKETS as u64 {
            let slot = if self.free == NIL {
                self.slab.push(Some(entry));
                self.next.push(NIL);
                u32::try_from(self.slab.len() - 1).expect("fewer than 2^32 pending events")
            } else {
                let slot = self.free;
                self.free = self.next[slot as usize];
                self.slab[slot as usize] = Some(entry);
                slot
            };
            self.chain(abs, slot);
        } else {
            self.overflow.push(Reverse(entry));
        }
    }

    /// Put an occupied slot at the head of the chain of `abs`'s bucket.
    fn chain(&mut self, abs: u64, slot: u32) {
        let bucket = (abs & (N_BUCKETS as u64 - 1)) as usize;
        self.occupied[bucket >> 6] |= 1 << (bucket & 63);
        self.next[slot as usize] = self.ring[bucket];
        self.ring[bucket] = slot;
        self.ring_len += 1;
    }

    /// Take the entry out of an occupied slot and put the slot at the
    /// head of the free list; returns the entry and the slot's old link.
    fn unchain(&mut self, slot: u32) -> (Entry<T>, u32) {
        let entry = self.slab[slot as usize]
            .take()
            .expect("chained slots are occupied");
        let link = std::mem::replace(&mut self.next[slot as usize], self.free);
        self.free = slot;
        (entry, link)
    }

    /// Advance the cursor until the due/late tier holds the earliest
    /// event (no-op if it already does, or if the queue is empty).
    ///
    /// A non-empty `due` or `late` always holds the global minimum:
    /// their events are at `abs <= cur_abs`, every ring event is at
    /// `abs > cur_abs`, and every overflow event is beyond the ring.
    fn seek(&mut self) {
        while self.due.is_empty() && self.late.is_empty() {
            if self.ring_len == 0 {
                // Everything pending (if anything) is in overflow:
                // jump the cursor straight to its earliest bucket
                // instead of sweeping up to N_BUCKETS empty slots.
                let Some(Reverse(head)) = self.overflow.peek() else {
                    return;
                };
                self.cur_abs = self.cur_abs.max(head.at.0 >> self.shift);
                self.admit_overflow();
            } else {
                // Any ring event precedes any overflow event (the
                // overflow invariant: `abs >= cur_abs + N_BUCKETS`),
                // so jump straight to the next occupied bucket.
                self.cur_abs += self.next_occupied_delta();
                let bucket = (self.cur_abs & (N_BUCKETS as u64 - 1)) as usize;
                self.occupied[bucket >> 6] &= !(1 << (bucket & 63));
                let mut slot = std::mem::replace(&mut self.ring[bucket], NIL);
                while slot != NIL {
                    let (entry, link) = self.unchain(slot);
                    self.due.push(entry);
                    self.ring_len -= 1;
                    slot = link;
                }
                // One small sort per bucket beats a heap sift per
                // event: `due` is empty here, so this is the whole
                // bucket, typically a handful of events.
                self.due.sort_unstable_by(|a, b| b.cmp(a));
                self.admit_overflow();
            }
        }
    }

    /// Distance (in buckets) from the cursor to the next occupied ring
    /// bucket. Caller guarantees `ring_len > 0`; the result is in
    /// `[1, N_BUCKETS - 1]` because a ring event's `abs` never shares
    /// the cursor's residue (`abs - cur_abs` is in `[1, N_BUCKETS)`).
    fn next_occupied_delta(&self) -> u64 {
        let cur_bucket = (self.cur_abs & (N_BUCKETS as u64 - 1)) as usize;
        let start = (cur_bucket + 1) & (N_BUCKETS - 1);
        let (word, bit) = (start >> 6, start & 63);
        let masked = self.occupied[word] & (!0u64 << bit);
        let found = if masked != 0 {
            (word << 6) + masked.trailing_zeros() as usize
        } else {
            let mut found = None;
            for step in 1..=N_WORDS {
                let w = (word + step) & (N_WORDS - 1);
                if self.occupied[w] != 0 {
                    found = Some((w << 6) + self.occupied[w].trailing_zeros() as usize);
                    break;
                }
            }
            found.expect("ring_len > 0 implies an occupied bucket")
        };
        (found.wrapping_sub(cur_bucket) & (N_BUCKETS - 1)) as u64
    }

    /// Move overflow events that now fall within the wheel horizon
    /// into the wheel (or `late` if they are due already).
    fn admit_overflow(&mut self) {
        while let Some(Reverse(head)) = self.overflow.peek() {
            let abs = head.at.0 >> self.shift;
            if abs > self.cur_abs && abs - self.cur_abs >= N_BUCKETS as u64 {
                break;
            }
            let Reverse(e) = self.overflow.pop().expect("peeked");
            self.place(e);
        }
    }

    /// Recompute the bucket-width exponent from the sampled delay
    /// distribution; rebuild the wheel if it moved meaningfully.
    ///
    /// Width target: `len` pending events spread over a window of
    /// roughly `2 * avg_delay` should occupy buckets at a few events
    /// each, i.e. `width ≈ WIDTH_NUMERATOR * avg_delay / len`. The
    /// two-step hysteresis keeps a noisy boundary workload from
    /// rebuilding every period.
    fn maybe_retune(&mut self) {
        let avg_delay = self.delay_sum / u64::from(RETUNE_PERIOD);
        self.delay_sum = 0;
        self.pushes_since_retune = 0;
        let len = self.len() as u64;
        let width = (avg_delay.saturating_mul(WIDTH_NUMERATOR) / len.max(1)).max(1);
        let desired = (63 - width.leading_zeros()).clamp(MIN_SHIFT, MAX_SHIFT);
        if desired.abs_diff(self.shift) >= 2 {
            self.rebuild(desired);
        }
    }

    /// Re-key every pending event at a new bucket width, anchoring the
    /// cursor at the last popped timestamp. Order is unaffected: the
    /// pop order is derived from `(at, seq)` keys, not tier placement.
    ///
    /// The occupied slab slots *are* the ring-resident events, so each
    /// is re-chained where it sits (or leaves for `late`/`overflow` and
    /// frees its slot); only the other three tiers pass through a stash.
    fn rebuild(&mut self, shift: u32) {
        let mut stash: Vec<Entry<T>> = Vec::with_capacity(self.len() - self.ring_len);
        stash.append(&mut self.due);
        stash.extend(self.late.drain().map(|Reverse(e)| e));
        stash.extend(self.overflow.drain().map(|Reverse(e)| e));
        self.ring.fill(NIL);
        self.ring_len = 0;
        self.occupied = [0; N_WORDS];
        self.shift = shift;
        self.cur_abs = self.last_pop_at >> shift;
        for slot in 0..self.slab.len() as u32 {
            let Some(entry) = &self.slab[slot as usize] else {
                continue;
            };
            let abs = entry.at.0 >> shift;
            if abs > self.cur_abs && abs - self.cur_abs < N_BUCKETS as u64 {
                self.chain(abs, slot);
            } else {
                let (entry, _) = self.unchain(slot);
                self.place(entry);
            }
        }
        for entry in stash {
            self.place(entry);
        }
    }

    /// Bytes per slab slot (`core/tests/packet_size.rs` pins the simulator's).
    #[doc(hidden)]
    pub const SLOT_BYTES: usize = std::mem::size_of::<Option<Entry<T>>>();

    /// Slab slots ever allocated (occupied + free).
    #[doc(hidden)]
    pub fn slab_slots(&self) -> usize {
        self.slab.len()
    }

    /// Slab slots on the free list, counted by walking it.
    #[doc(hidden)]
    pub fn free_slots(&self) -> usize {
        let live = |slot: u32| (slot != NIL).then_some(slot);
        std::iter::successors(live(self.free), |&slot| live(self.next[slot as usize])).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference model: a plain binary heap over the same keys.
    struct RefQueue {
        heap: BinaryHeap<Reverse<Entry<u64>>>,
    }

    impl RefQueue {
        fn new() -> RefQueue {
            RefQueue {
                heap: BinaryHeap::new(),
            }
        }
        fn push(&mut self, at: SimTime, seq: u64) {
            self.heap.push(Reverse(Entry { at, seq, item: seq }));
        }
        fn pop(&mut self) -> Option<(SimTime, u64)> {
            self.heap.pop().map(|Reverse(e)| (e.at, e.seq))
        }
    }

    fn drain_equal(mut q: EventQueue<u64>, mut r: RefQueue) {
        loop {
            let got = q.pop();
            let want = r.pop();
            match (got, want) {
                (None, None) => break,
                (Some((at, seq, item)), Some((rat, rseq))) => {
                    assert_eq!((at, seq), (rat, rseq));
                    assert_eq!(item, seq, "payload follows its key");
                }
                (got, want) => panic!("length mismatch: {got:?} vs {want:?}"),
            }
        }
        assert!(q.is_empty());
    }

    #[test]
    fn empty_queue_behaves() {
        let mut q: EventQueue<u64> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_at(), None);
    }

    #[test]
    fn fifo_at_same_timestamp() {
        // Adversarial: every event at the same instant — pure seq order.
        let mut q = EventQueue::new();
        let mut r = RefQueue::new();
        for seq in 0..1_000u64 {
            q.push(SimTime(77), seq, seq);
            r.push(SimTime(77), seq);
        }
        drain_equal(q, r);
    }

    #[test]
    fn spans_buckets_and_overflow() {
        // Timestamps straddling bucket edges, the wheel horizon, and
        // far-future overflow; interleaved duplicate instants.
        let mut q = EventQueue::new();
        let mut r = RefQueue::new();
        let horizon = (N_BUCKETS as u64) << INITIAL_SHIFT;
        let times = [
            0,
            1,
            (1 << INITIAL_SHIFT) - 1,
            1 << INITIAL_SHIFT,
            (1 << INITIAL_SHIFT) + 1,
            3 << INITIAL_SHIFT,
            horizon - 1,
            horizon,
            horizon + 1,
            7 * horizon,
            7 * horizon,
            u64::MAX >> 1,
        ];
        for (seq, &t) in times.iter().enumerate() {
            q.push(SimTime(t), seq as u64, seq as u64);
            r.push(SimTime(t), seq as u64);
        }
        drain_equal(q, r);
    }

    #[test]
    fn randomized_interleaved_push_pop() {
        // Deterministic xorshift; monotone schedule: each push is at or
        // after the last popped time, as the simulator guarantees.
        let mut q = EventQueue::new();
        let mut r = RefQueue::new();
        let mut x = 0x9E3779B97F4A7C15u64;
        let mut rnd = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut now = 0u64;
        for (seq, round) in (0u64..).zip(0..10_000) {
            // Delays spanning sub-bucket, multi-bucket and overflow
            // ranges, with a bias toward the hot (small-delay) case.
            let delay = match rnd() % 10 {
                0..=5 => rnd() % 4_096,
                6..=7 => rnd() % (64 << INITIAL_SHIFT),
                8 => rnd() % ((2 * N_BUCKETS as u64) << INITIAL_SHIFT),
                _ => 0, // same-instant
            };
            q.push(SimTime(now + delay), seq, seq);
            r.push(SimTime(now + delay), seq);
            if round % 3 != 0 {
                let got = q.pop();
                let want = r.pop().map(|(at, s)| (at, s, s));
                assert_eq!(got, want);
                if let Some((at, _, _)) = got {
                    now = at.0;
                }
            }
        }
        drain_equal(q, r);
    }

    #[test]
    fn retune_mid_stream_preserves_order() {
        // Enough pushes to cross several RETUNE_PERIOD boundaries with
        // a delay mix that swings the width formula both narrower and
        // wider than INITIAL_SHIFT, forcing mid-stream rebuilds.
        let mut x = 0xDEADBEEFCAFEF00Du64;
        let mut rnd = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut q = EventQueue::new();
        let mut r = RefQueue::new();
        let mut now = 0u64;
        for seq in 0..(6 * u64::from(RETUNE_PERIOD)) {
            let delay = match seq % 7 {
                0..=4 => rnd() % 256,
                5 => rnd() % (1 << 20),
                _ => rnd() % (1 << 30),
            };
            q.push(SimTime(now + delay), seq, seq);
            r.push(SimTime(now + delay), seq);
            if seq % 2 == 1 {
                let got = q.pop();
                let want = r.pop().map(|(at, s)| (at, s, s));
                assert_eq!(got, want);
                if let Some((at, _, _)) = got {
                    now = at.0;
                }
            }
        }
        drain_equal(q, r);
    }

    #[test]
    fn rebuild_mid_stream_recycles_slots() {
        // 300 events inside the wheel, a third of them drained (their
        // slots free), then retunes both ways: narrower pushes the far
        // events out to `overflow` (slots freed), wider re-chains every
        // survivor where it sits. The slab never grows, never loses a
        // slot, and the drain order is the reference heap's.
        let mut q = EventQueue::new();
        let mut r = RefQueue::new();
        for seq in 0..300u64 {
            let at = SimTime((seq + 1) * 9_000);
            q.push(at, seq, seq);
            r.push(at, seq);
        }
        assert_eq!((q.slab_slots(), q.free_slots()), (300, 0));
        for _ in 0..100 {
            assert_eq!(q.pop().map(|(at, s, _)| (at, s)), r.pop());
        }
        let resident = |q: &EventQueue<u64>| q.slab_slots() - q.free_slots();
        assert_eq!((q.slab_slots(), resident(&q), q.ring_len), (300, 200, 200));
        q.rebuild(6);
        assert!(!q.overflow.is_empty(), "a 262 us horizon sheds the tail");
        assert_eq!((q.slab_slots(), resident(&q)), (300, q.ring_len));
        assert_eq!(q.len(), 200);
        q.rebuild(16);
        assert_eq!((q.slab_slots(), resident(&q)), (300, q.ring_len));
        assert_eq!(q.len(), 200);
        // Refill: the freed slots are reused before the slab grows.
        for seq in 300..400u64 {
            let at = SimTime(q.last_pop_at + (seq - 299) * 70_000);
            q.push(at, seq, seq);
            r.push(at, seq);
        }
        assert_eq!(q.slab_slots(), 300);
        drain_equal(q, r);
    }

    #[test]
    fn peek_at_matches_reference_heap() {
        // peek_at must always agree with the reference heap's minimum,
        // never change the logical contents, and be stable across
        // repeated calls — under the same monotone randomized schedule
        // as the pop equivalence test (cursor hops, late pushes,
        // overflow admissions and mid-stream retunes included).
        let mut q = EventQueue::new();
        let mut r = RefQueue::new();
        let mut x = 0xA076_1D64_78BD_642Fu64;
        let mut rnd = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut now = 0u64;
        for (seq, round) in (0u64..).zip(0..10_000) {
            let delay = match rnd() % 10 {
                0..=5 => rnd() % 4_096,
                6..=7 => rnd() % (64 << INITIAL_SHIFT),
                8 => rnd() % ((2 * N_BUCKETS as u64) << INITIAL_SHIFT),
                _ => 0,
            };
            q.push(SimTime(now + delay), seq, seq);
            r.push(SimTime(now + delay), seq);
            let want = r.heap.peek().map(|Reverse(e)| e.at);
            let len_before = q.len();
            assert_eq!(q.peek_at(), want);
            assert_eq!(q.peek_at(), want, "peek is idempotent");
            assert_eq!(q.len(), len_before, "peek removes nothing");
            if round % 3 != 0 {
                let got = q.pop();
                let want = r.pop().map(|(at, s)| (at, s, s));
                assert_eq!(got, want, "pop after peek is unperturbed");
                if let Some((at, _, _)) = got {
                    now = at.0;
                }
                assert_eq!(q.peek_at(), r.heap.peek().map(|Reverse(e)| e.at));
            }
        }
        drain_equal(q, r);
    }

    #[test]
    fn push_behind_cursor_after_peek() {
        // peek_at advances the cursor across empty buckets; a
        // subsequent same-instant push must still pop first.
        let mut q = EventQueue::new();
        q.push(SimTime(100 << INITIAL_SHIFT), 0, 0);
        assert_eq!(q.peek_at(), Some(SimTime(100 << INITIAL_SHIFT)));
        // The harness injects at a time long passed by the cursor.
        q.push(SimTime(5), 1, 1);
        assert_eq!(q.pop(), Some((SimTime(5), 1, 1)));
        assert_eq!(q.pop(), Some((SimTime(100 << INITIAL_SHIFT), 0, 0)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_run_drains_same_instant_in_seq_order() {
        let mut q = EventQueue::new();
        // A run at t=50 split across due and late tiers: push one far
        // event, peek to run the cursor ahead, then push the rest of
        // the run behind the cursor (they land in `late`).
        q.push(SimTime(50), 0, 0);
        q.push(SimTime(900 << INITIAL_SHIFT), 1, 1);
        assert_eq!(q.peek_at(), Some(SimTime(50)));
        q.push(SimTime(50), 2, 2);
        q.push(SimTime(50), 3, 3);
        q.push(SimTime(60), 4, 4);
        let mut out = Vec::new();
        // Deadline before the head: no drain.
        assert_eq!(q.pop_run(SimTime(49), &mut out), 0);
        assert!(out.is_empty());
        // Drains exactly the t=50 run, FIFO by seq, not the t=60 event.
        assert_eq!(q.pop_run(SimTime(100), &mut out), 3);
        let got: Vec<_> = out.iter().map(|&(at, seq, _)| (at.0, seq)).collect();
        assert_eq!(got, vec![(50, 0), (50, 2), (50, 3)]);
        out.clear();
        assert_eq!(q.pop_run(SimTime(100), &mut out), 1);
        assert_eq!(out[0].0, SimTime(60));
        out.clear();
        // Far event beyond the deadline stays put.
        assert_eq!(q.pop_run(SimTime(100), &mut out), 0);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn pop_run_matches_pop_sequence() {
        // Two identically-seeded queues: draining via pop_run yields
        // the exact (at, seq) sequence of one-at-a-time pops.
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        let mut rnd = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut a = EventQueue::new();
        let mut b = EventQueue::new();
        for seq in 0..5_000u64 {
            // Coarse timestamps force heavy same-instant runs.
            let at = SimTime((rnd() % 64) * 1_000);
            a.push(at, seq, seq);
            b.push(at, seq, seq);
        }
        let mut from_pop = Vec::new();
        while let Some((at, seq, _)) = a.pop() {
            from_pop.push((at, seq));
        }
        let mut from_runs = Vec::new();
        let mut buf = Vec::new();
        while b.pop_run(SimTime(u64::MAX), &mut buf) > 0 {
            from_runs.extend(buf.drain(..).map(|(at, seq, _)| (at, seq)));
        }
        assert_eq!(from_pop, from_runs);
        assert!(b.is_empty());
    }

    #[test]
    fn len_tracks_all_tiers() {
        let mut q = EventQueue::new();
        q.push(SimTime(0), 0, 0); // current
        q.push(SimTime(2 << INITIAL_SHIFT), 1, 1); // ring
        q.push(SimTime((N_BUCKETS as u64 + 10) << INITIAL_SHIFT), 2, 2); // overflow
        assert_eq!(q.len(), 3);
        q.pop();
        assert_eq!(q.len(), 2);
        q.pop();
        q.pop();
        assert!(q.is_empty());
    }
}
