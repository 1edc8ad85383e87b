//! NetChain baseline (Jin et al. — NSDI 2018), used as a lock service.
//!
//! NetChain is an in-switch key-value store; the paper repurposes it as
//! a lock manager the way §6.1 describes: it "is not a fully functional
//! lock manager, as it only supports exclusive locks. Therefore,
//! requests for shared locks are treated as exclusive locks. NetChain
//! handles concurrent requests with client-side retry." And because it
//! can only store items in the switch, lock granularity is coarsened so
//! the whole lock space fits in switch memory — extra false contention.
//!
//! The switch holds one 64-bit owner word per slot; an acquire is a
//! read-modify-write (grant if the word is free), a denial bounces back
//! to the client, which retries after a backoff. There are no queues,
//! no FCFS, no policies — that is the point of the comparison.

use netlock_core::closed_loop::{Client, Protocol};
use netlock_core::txn::LockNeed;
use netlock_core::CLIENT_STACK_DELAY;
use netlock_proto::{Grantor, Priority};
use netlock_sim::{Context, Node, NodeId, Packet, SimDuration};
use netlock_switch::TRAVERSAL;

/// NetChain messages.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NcMsg {
    /// Client → switch: try to take `lock` for `txn`.
    Acquire {
        /// Coarsened lock slot.
        lock: u32,
        /// Requesting transaction tag.
        txn: u64,
    },
    /// Switch → client: result of an acquire.
    Reply {
        /// Coarsened lock slot.
        lock: u32,
        /// Transaction tag echoed.
        txn: u64,
        /// Granted or denied.
        granted: bool,
        /// Correlation token.
        token: u64,
    },
    /// Client → switch: free `lock` if still owned by `txn`.
    Release {
        /// Coarsened lock slot.
        lock: u32,
        /// Owner tag.
        txn: u64,
    },
    /// Acquire with its correlation token (internal form).
    AcquireTok {
        /// Coarsened lock slot.
        lock: u32,
        /// Requesting transaction tag.
        txn: u64,
        /// Correlation token.
        token: u64,
    },
}

/// The NetChain switch: exclusive-only owner words at line rate.
pub struct NcSwitch {
    slots: Vec<u64>,
    /// Grants issued.
    pub grants: u64,
    /// Denials issued.
    pub denials: u64,
}

impl NcSwitch {
    /// A switch with `slots` owner words.
    pub fn new(slots: usize) -> NcSwitch {
        assert!(slots > 0);
        NcSwitch {
            slots: vec![0; slots],
            grants: 0,
            denials: 0,
        }
    }

    /// Coarsen a lock id into a slot (the granularity adaptation).
    pub fn slot_of(&self, lock: u32) -> usize {
        ((lock as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % self.slots.len()
    }
}

impl Node<NcMsg> for NcSwitch {
    fn on_packet(&mut self, pkt: Packet<NcMsg>, ctx: &mut Context<'_, NcMsg>) {
        match pkt.payload {
            NcMsg::AcquireTok { lock, txn, token } => {
                let slot = self.slot_of(lock);
                let word = &mut self.slots[slot];
                let granted = if *word == 0 || *word == txn {
                    *word = txn;
                    true
                } else {
                    false
                };
                if granted {
                    self.grants += 1;
                } else {
                    self.denials += 1;
                }
                ctx.send_after(
                    pkt.src,
                    NcMsg::Reply {
                        lock,
                        txn,
                        granted,
                        token,
                    },
                    TRAVERSAL,
                );
            }
            NcMsg::Release { lock, txn } => {
                let slot = self.slot_of(lock);
                if self.slots[slot] == txn {
                    self.slots[slot] = 0;
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, _token: u64, _ctx: &mut Context<'_, NcMsg>) {}

    fn name(&self) -> &str {
        "netchain-switch"
    }
}

/// NetChain client configuration.
#[derive(Clone, Debug)]
pub struct NcClientConfig {
    /// Concurrent transaction contexts.
    pub workers: usize,
}

/// Where a NetChain worker is in acquiring its current lock.
#[derive(Debug)]
pub enum Phase {
    /// Acquire in flight.
    Attempting {
        /// Denials of this lock so far.
        attempts: u32,
    },
    /// Denied; backing off before asking again.
    BackingOff {
        /// Denials of this lock so far.
        attempts: u32,
    },
    /// Every lock held.
    Thinking,
}

/// The NetChain client node.
pub type NcClient = Client<NcClientConfig>;

impl Protocol for NcClientConfig {
    type Msg = NcMsg;
    type Phase = Phase;
    const THINKING: Phase = Phase::Thinking;
    const NAME: &'static str = "netchain-client";
    const SEED_SALT: u64 = 0x5EC7;
    /// The same client stack as NetLock's clients.
    const STACK_DELAY: SimDuration = CLIENT_STACK_DELAY;

    fn workers(&self) -> usize {
        self.workers
    }

    fn request(c: &mut NcClient, w: usize, ctx: &mut Context<'_, NcMsg>) {
        attempt(c, w, 0, ctx);
    }

    fn on_packet(c: &mut NcClient, msg: NcMsg, ctx: &mut Context<'_, NcMsg>) {
        let NcMsg::Reply { granted, token, .. } = msg else {
            return;
        };
        let Some(w) = c.live(token) else {
            return;
        };
        let Phase::Attempting { attempts } = c.workers[w].phase else {
            return;
        };
        let attempts = attempts + 1;
        if granted {
            c.acquired(w, Grantor::Switch, 0, ctx);
        } else {
            c.stats.waits += 1;
            c.workers[w].phase = Phase::BackingOff { attempts };
            c.back_off(w, attempts, ctx);
        }
    }

    fn on_timer(c: &mut NcClient, token: u64, ctx: &mut Context<'_, NcMsg>) {
        let Some(w) = c.live(token) else {
            return;
        };
        match c.workers[w].phase {
            Phase::BackingOff { attempts } => {
                c.bump(w);
                attempt(c, w, attempts, ctx);
            }
            Phase::Thinking => c.commit(w, ctx),
            Phase::Attempting { .. } => {}
        }
    }

    fn release(need: LockNeed, tag: u64, _: Priority, _: NodeId) -> Option<NcMsg> {
        Some(NcMsg::Release {
            lock: need.lock.0,
            txn: tag,
        })
    }
}

/// Ask the switch for worker `w`'s current lock, owner word = the
/// transaction's tag.
fn attempt(c: &mut NcClient, w: usize, attempts: u32, ctx: &mut Context<'_, NcMsg>) {
    c.workers[w].phase = Phase::Attempting { attempts };
    let msg = NcMsg::AcquireTok {
        lock: c.need(w).lock.0,
        txn: c.workers[w].tag,
        token: c.token(w),
    };
    c.send(c.need(w).lock, msg, ctx);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::Deployment;
    use netlock_core::txn::SingleLockSource;
    use netlock_proto::{LockId, LockMode};

    fn sources(
        n: usize,
        locks: Vec<LockId>,
        mode: LockMode,
        think: SimDuration,
    ) -> Vec<SingleLockSource> {
        (0..n)
            .map(|_| SingleLockSource {
                locks: locks.clone(),
                mode,
                think,
            })
            .collect()
    }

    #[test]
    fn uncontended_grants_flow() {
        let mut rack = Deployment::build(
            1,
            NcClientConfig { workers: 4 },
            [NcSwitch::new(100_000)],
            sources(
                2,
                (0..256).map(LockId).collect(),
                LockMode::Exclusive,
                SimDuration::ZERO,
            ),
        );
        let stats = rack.measure(SimDuration::from_millis(2), SimDuration::from_millis(10));
        assert!(stats.txns > 1_000, "txns = {}", stats.txns);
    }

    #[test]
    fn shared_treated_as_exclusive_causes_denials() {
        // All-shared traffic on one lock: a real lock manager would
        // grant everything concurrently; NetChain serializes it.
        let mut rack = Deployment::build(
            2,
            NcClientConfig { workers: 8 },
            [NcSwitch::new(100_000)],
            sources(2, vec![LockId(0)], LockMode::Shared, SimDuration::ZERO),
        );
        let stats = rack.measure(SimDuration::from_millis(2), SimDuration::from_millis(20));
        assert!(stats.retries > 0, "shared-as-exclusive must cause denials");
    }

    #[test]
    fn coarse_granularity_causes_false_contention() {
        // Distinct locks but only 4 switch slots: collisions deny.
        let mut rack = Deployment::build(
            3,
            NcClientConfig { workers: 8 },
            [NcSwitch::new(4)],
            sources(
                2,
                (0..1024).map(LockId).collect(),
                LockMode::Exclusive,
                SimDuration::ZERO,
            ),
        );
        let stats = rack.measure(SimDuration::from_millis(2), SimDuration::from_millis(20));
        assert!(stats.retries > 0, "hash collisions must cause denials");
    }

    #[test]
    fn release_frees_slot() {
        let mut rack = Deployment::build(
            4,
            NcClientConfig { workers: 1 },
            [NcSwitch::new(16)],
            sources(1, vec![LockId(7)], LockMode::Exclusive, SimDuration::ZERO),
        );
        rack.sim.run_for(SimDuration::from_millis(5));
        // A single worker acquiring/releasing in a loop completes many
        // transactions — impossible unless releases free the slot.
        let txns = rack
            .sim
            .read_node::<NcClient, _>(rack.clients[0], |c| c.stats().txns);
        assert!(txns > 100, "txns = {txns}");
    }
}
