//! Compile-time pins for the simulator event-slot layout.
//!
//! Every pending event in the calendar queue embeds a
//! `Packet<NetLockMsg>`, so its size bounds the footprint and memmove
//! cost of the entire pending set. The bulk `Push` and batch variants
//! carry boxed slices precisely to keep these bounds; if either
//! assertion fires, a variant grew and the hot loop just got slower
//! everywhere.

use netlock_proto::NetLockMsg;
use netlock_sim::{EventQueue, FaultAction, NodeId, Packet};

/// `src (4) + dst (4) + NetLockMsg (40)` — the message's niche/padding
/// absorbs nothing further, so 48 is the floor for this layout.
const _PACKET_FITS: () = assert!(std::mem::size_of::<Packet<NetLockMsg>>() <= 48);

const _MSG_FITS: () = assert!(std::mem::size_of::<NetLockMsg>() <= 40);

/// The simulator's queued event (`sim::EventKind`, crate-private),
/// variant for variant.
#[allow(dead_code)]
enum EventKind {
    Deliver(Packet<NetLockMsg>),
    Timer { node: NodeId, token: u64 },
    Fault(Box<FaultAction>),
}

/// `at (8) + seq (8) + event (48)`: a cache line's worth per pending
/// event. Exactly 64 — the event's tag rides the message's niche and
/// the slab's `Option` rides the tag's, so neither adds a word to the
/// queue's working set (`max_queue_depth x SLOT_BYTES`).
const _SLOT_IS_A_LINE: () = assert!(EventQueue::<EventKind>::SLOT_BYTES == 64);

#[test]
fn packet_slot_stays_compact() {
    // Runtime mirror of the const assertions (so the bound shows up in
    // `cargo test` output with the measured value, not just at build).
    let packet = std::mem::size_of::<Packet<NetLockMsg>>();
    let msg = std::mem::size_of::<NetLockMsg>();
    assert!(packet <= 48, "Packet<NetLockMsg> grew to {packet} bytes");
    assert!(msg <= 40, "NetLockMsg grew to {msg} bytes");
    let slot = EventQueue::<EventKind>::SLOT_BYTES;
    assert_eq!(slot, 64, "event-queue slab slot is {slot} bytes");
}
