//! Property test: the inline action buffer's capacity really is a
//! feasibility envelope, not a tunable. For any sequence of valid
//! NetLock messages — acquires and releases in both modes against a
//! switch-resident lock with the largest region a test layout allows,
//! plus server-resident and unknown locks — `DataPlane::process` never
//! pushes more than `ACTION_BUF_CAP` actions for one packet. The widest
//! single-packet burst Algorithm 2 can produce is the exclusive→shared
//! cascade (one grant per queued shared request, bounded by the region
//! size), so as long as regions fit the shared queue, the buffer can't
//! overflow. Overflow itself panics with a feasibility-style message;
//! the deliberate-overflow unit test lives in `action_buf.rs`.

use proptest::prelude::*;

use netlock_proto::{
    ClientAddr, LockId, LockMode, LockRequest, NetLockMsg, Priority, ReleaseRequest, TenantId,
    TxnId,
};
use netlock_switch::control::{apply_allocation, Allocation};
use netlock_switch::dataplane::{DataPlane, DpAction};
use netlock_switch::shared_queue::SharedQueueLayout;
use netlock_switch::{ActionBuf, ACTION_BUF_CAP};

/// Region capacity for the contended switch lock: the full 512-slot
/// array, so the X→S cascade is as wide as this layout permits.
const REGION_CAP: u32 = 512;

#[derive(Clone, Debug)]
enum Step {
    /// Acquire on the switch lock (contended path).
    Acquire { shared: bool },
    /// Release the oldest grant we hold (possibly cascading).
    Release,
    /// Traffic against a server-resident lock (forward path).
    ServerAcquire,
    /// Traffic against an unknown lock (drop path).
    UnknownAcquire,
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        prop_oneof![
            any::<bool>().prop_map(|shared| Step::Acquire { shared }),
            Just(Step::Release),
            any::<bool>().prop_map(|shared| Step::Acquire { shared }),
            Just(Step::Release),
            Just(Step::ServerAcquire),
            Just(Step::UnknownAcquire),
        ],
        1..400,
    )
}

fn req(lock: u32, mode: LockMode, txn: u64) -> LockRequest {
    LockRequest {
        lock: LockId(lock),
        mode,
        txn: TxnId(txn),
        client: ClientAddr(txn as u32),
        tenant: TenantId(0),
        priority: Priority(0),
        issued_at_ns: txn,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// No valid message sequence makes one packet exceed the inline
    /// capacity — and the grant fan-out never exceeds the region size
    /// plus the push-protocol notification.
    #[test]
    fn valid_sequences_never_exceed_inline_capacity(ops in steps()) {
        let mut dp = DataPlane::new_fcfs(&SharedQueueLayout::small(1, REGION_CAP as usize, 2));
        let alloc = Allocation {
            in_switch: vec![(LockId(1), REGION_CAP, 0)],
            in_server: vec![(LockId(2), 0)],
        };
        apply_allocation(&mut dp, &alloc);

        let mut out = ActionBuf::new();
        let mut txn = 0u64;
        // (txn, mode) grants outstanding on the switch lock, FIFO.
        let mut held: Vec<(u64, LockMode)> = Vec::new();
        for op in ops {
            txn += 1;
            let msg = match op {
                Step::Acquire { shared } => {
                    let mode = if shared { LockMode::Shared } else { LockMode::Exclusive };
                    NetLockMsg::Acquire(req(1, mode, txn))
                }
                Step::Release => {
                    if held.is_empty() {
                        continue;
                    }
                    let (t, mode) = held.remove(0);
                    NetLockMsg::Release(ReleaseRequest {
                        lock: LockId(1),
                        txn: TxnId(t),
                        mode,
                        client: ClientAddr(t as u32),
                        priority: Priority(0),
                    })
                }
                Step::ServerAcquire => NetLockMsg::Acquire(req(2, LockMode::Shared, txn)),
                Step::UnknownAcquire => NetLockMsg::Acquire(req(99, LockMode::Exclusive, txn)),
            };
            dp.process(msg, txn, &mut out);
            prop_assert!(
                out.len() <= ACTION_BUF_CAP,
                "one packet produced {} actions",
                out.len()
            );
            prop_assert!(
                out.len() <= REGION_CAP as usize + 1,
                "fan-out {} exceeds region bound {}",
                out.len(),
                REGION_CAP + 1
            );
            for act in out.iter() {
                if let DpAction::SendGrant(g) = act {
                    if g.lock == LockId(1) {
                        held.push((g.txn.0, g.mode));
                    }
                }
            }
        }
    }
}
