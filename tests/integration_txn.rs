//! Transaction-IR integration: the declarative FCFS grant-path program
//! (`switch::txn::netlock`) is differential-tested against the real
//! `SharedQueue` admission path it models, and the lowered executor is
//! held to the same zero-allocation steady-state standard as the
//! hand-written data plane (`integration_alloc.rs`).
//!
//! The queue differential drives identical shared/exclusive request
//! sequences through `SharedQueue::acquire` and the lowered
//! `TxnProgram`, then compares per-request outcomes (grant / queue /
//! full) and the final register state: occupancy, exclusive count,
//! arrival counter, tail position, and the per-slot modes.

use netlock_bench::{allocation_count, CountingAlloc};
use netlock_proto::{ClientAddr, LockMode, Priority, TxnId};
use netlock_switch::analysis::layout::TofinoBudget;
use netlock_switch::control::{apply_allocation, knapsack_allocate, LockStats};
use netlock_switch::register::PassAllocator;
use netlock_switch::shared_queue::{AcquireOutcome, SharedQueue, SharedQueueLayout};
use netlock_switch::slot::Slot;
use netlock_switch::txn::netlock::{
    fcfs_enqueue_program, ARR_COUNT, ARR_EXCL, ARR_REQ_COUNT, ARR_SLOTS, ARR_TAIL, EMIT_FULL,
    EMIT_GRANTED, EMIT_QUEUED,
};
use netlock_switch::txn::{LoweredTxn, TxnAction};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn slot_for(mode: LockMode, txn: u64) -> Slot {
    Slot {
        valid: true,
        mode,
        txn: TxnId(txn),
        client: ClientAddr(1),
        priority: Priority(0),
        issued_at_ns: 0,
        granted: false,
    }
}

fn outcome_of(actions: &[TxnAction]) -> AcquireOutcome {
    assert_eq!(actions.len(), 1, "program must emit exactly one verdict");
    match actions[0].kind {
        EMIT_GRANTED => AcquireOutcome::Granted,
        EMIT_QUEUED => AcquireOutcome::Queued,
        EMIT_FULL => AcquireOutcome::Overflow,
        other => panic!("unexpected emit kind {other}"),
    }
}

/// The transaction program and the real shared queue agree on every
/// admission decision and on the final register state, across random
/// enqueue-only request sequences at several capacities.
#[test]
fn txn_program_matches_shared_queue_admission() {
    let budget = TofinoBudget::tofino_single_direction();
    let mut rng = SmallRng::seed_from_u64(0x6e65_746c_6f63_6b00);
    for cap in 1u32..=6 {
        let program = fcfs_enqueue_program(cap);
        for trial in 0..32u64 {
            let mut lowered = LoweredTxn::compile(program.clone(), &budget).unwrap();
            let mut queue = SharedQueue::new(&SharedQueueLayout::small(1, 16, 4));
            queue.cp_set_region(0, 0, cap);
            let mut passes = PassAllocator::new();
            let mut actions = Vec::new();
            let requests = cap * 2; // overfill so Full paths are hit
            for txn in 0..u64::from(requests) {
                let mode = if rng.random::<bool>() {
                    LockMode::Exclusive
                } else {
                    LockMode::Shared
                };
                let real = queue.acquire(&mut passes, 0, slot_for(mode, txn));
                actions.clear();
                let is_excl = u64::from(mode == LockMode::Exclusive);
                lowered.run(&[is_excl], &mut actions);
                assert_eq!(
                    outcome_of(&actions),
                    real,
                    "cap {cap} trial {trial}: verdict diverged at request {txn}"
                );
            }
            // Final-state comparison. No releases were issued, so the
            // real head is still 0 and `cp_entries` (head-first order)
            // lines up with slot offsets.
            // Nor did the region ever drain, which keeps the program's
            // monotone tail comparable: the real queue restarts an
            // empty region at offset 0, the program's tail never resets.
            let state = lowered.dump();
            let region = queue.cp_region(0);
            assert_eq!(state[ARR_COUNT][0] as u32, region.count, "cap {cap}");
            assert_eq!(state[ARR_EXCL][0] as u32, region.excl, "cap {cap}");
            assert_eq!(
                state[ARR_TAIL][0] as u32 % cap,
                region.tail,
                "cap {cap}: monotone txn tail must wrap to the real tail"
            );
            assert_eq!(state[ARR_REQ_COUNT][0], u64::from(requests));
            assert_eq!(queue.cp_take_req_count(0), u64::from(requests));
            for (offset, entry) in queue.cp_entries(0).enumerate() {
                let want = if entry.valid {
                    // Slot encoding in the transaction: mode + 1.
                    1 + u64::from(entry.mode == LockMode::Exclusive)
                } else {
                    0
                };
                assert_eq!(
                    state[ARR_SLOTS][offset], want,
                    "cap {cap} trial {trial}: slot {offset} mode diverged"
                );
            }
        }
    }
}

/// The program the differential above validated, sized to a region's
/// capacity after a knapsack allocation, passes the static verifier.
#[test]
fn grant_path_program_verifies_at_allocated_capacity() {
    let mut dp = netlock_switch::DataPlane::new_fcfs(&SharedQueueLayout::small(2, 8, 4));
    let stats = LockStats::uniform((0..4).map(netlock_proto::LockId), 4, 1);
    apply_allocation(&mut dp, &knapsack_allocate(&stats, 16));
    let cap = match dp.engine() {
        netlock_switch::Engine::Fcfs(q) => q.cp_region(0).capacity(),
        netlock_switch::Engine::Priority(_) => unreachable!(),
    };
    assert!(cap > 0, "region 0 has capacity");
    let budget = TofinoBudget::tofino_single_direction();
    netlock_switch::txn::verify(fcfs_enqueue_program(cap), &budget)
        .unwrap_or_else(|e| panic!("grant-path program must verify: {e}"));
}

/// Steady-state lowered execution of the grant-path transaction is
/// allocation-free: packets run entirely in the structures `compile`
/// preallocated, matching the hand-written data plane's bar.
#[test]
fn lowered_txn_steady_state_is_allocation_free() {
    let cap = 8u32;
    let budget = TofinoBudget::tofino_single_direction();
    let mut lowered = LoweredTxn::compile(fcfs_enqueue_program(cap), &budget).unwrap();
    let mut actions = Vec::new();
    // Warm-up: fill the region once (grant + queue paths) and overflow
    // it (full path), then reset — the action buffer reaches capacity.
    for txn in 0..u64::from(cap) * 2 {
        actions.clear();
        lowered.run(&[txn % 2], &mut actions);
    }
    lowered.cp_reset();
    let before = allocation_count();
    let mut packets = 0u64;
    for _ in 0..1_000 {
        for txn in 0..u64::from(cap) * 2 {
            actions.clear();
            lowered.run(&[txn % 2], &mut actions);
            packets += 1;
        }
        lowered.cp_reset();
    }
    let allocs = allocation_count() - before;
    assert_eq!(
        allocs, 0,
        "steady-state lowered transaction allocated {allocs} times over {packets} packets"
    );
}
