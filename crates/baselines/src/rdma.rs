//! One-sided RDMA model for the DSLR and DrTM baselines.
//!
//! The paper's baselines run on Mellanox ConnectX-3 56G NICs. Clients
//! issue one-sided verbs (FETCH_ADD, COMPARE_SWAP, READ, WRITE) against
//! lock words in the server's memory; the server CPU is never involved —
//! which is precisely why these designs cannot enforce policies. The
//! model captures the two properties that govern baseline performance:
//!
//! - **Verb round trips.** Every verb costs a full client↔server RTT.
//! - **NIC processing bound.** The NIC executes verbs serially from its
//!   RX pipeline; ConnectX-3 sustains only a few million one-sided
//!   atomics per second (the well-known atomics bottleneck), modeled as
//!   a per-verb service time with a busy-until horizon.

use std::collections::HashMap;

use netlock_sim::{Context, Node, Packet, SimDuration};

/// RDMA verb messages (requests carry the issuing node implicitly; the
/// reply goes back to the packet's source).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RdmaMsg {
    /// FETCH_ADD: atomically add `add` to the 64-bit word at `addr`.
    FetchAdd {
        /// Target address (word-granular).
        addr: u64,
        /// Addend.
        add: u64,
        /// Caller-chosen correlation id, echoed in the reply.
        token: u64,
    },
    /// Reply to FETCH_ADD with the pre-add value.
    FetchAddReply {
        /// Target address.
        addr: u64,
        /// Value before the add.
        old: u64,
        /// Echoed correlation id.
        token: u64,
    },
    /// COMPARE_SWAP: if word == `expect`, set to `new`.
    CompareSwap {
        /// Target address.
        addr: u64,
        /// Expected value.
        expect: u64,
        /// Replacement value.
        new: u64,
        /// Correlation id.
        token: u64,
    },
    /// Reply to COMPARE_SWAP with the pre-op value (`old == expect`
    /// means the swap succeeded).
    CompareSwapReply {
        /// Target address.
        addr: u64,
        /// Value before the op.
        old: u64,
        /// Correlation id.
        token: u64,
    },
    /// One-sided READ of the word at `addr`.
    Read {
        /// Target address.
        addr: u64,
        /// Correlation id.
        token: u64,
    },
    /// Reply to READ.
    ReadReply {
        /// Target address.
        addr: u64,
        /// The value read.
        value: u64,
        /// Correlation id.
        token: u64,
    },
    /// One-sided WRITE.
    Write {
        /// Target address.
        addr: u64,
        /// Value to store.
        value: u64,
        /// Correlation id.
        token: u64,
    },
    /// Write completion.
    WriteReply {
        /// Correlation id.
        token: u64,
    },
}

impl RdmaMsg {
    /// The correlation id of a reply; `None` for a request.
    pub(crate) fn reply_token(&self) -> Option<u64> {
        match *self {
            RdmaMsg::FetchAddReply { token, .. }
            | RdmaMsg::CompareSwapReply { token, .. }
            | RdmaMsg::ReadReply { token, .. }
            | RdmaMsg::WriteReply { token } => Some(token),
            _ => None,
        }
    }
}

/// NIC service time per one-sided atomic (FA/CAS). ConnectX-3's
/// atomics bottleneck ≈ 2.5 Mops → 400 ns.
pub const ATOMIC_SERVICE: SimDuration = SimDuration::from_nanos(400);
/// NIC service time per READ/WRITE (cheaper than atomics).
pub const RW_SERVICE: SimDuration = SimDuration::from_nanos(110);

/// NIC counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct RdmaNicStats {
    /// Atomics executed.
    pub atomics: u64,
    /// Reads/writes executed.
    pub reads_writes: u64,
    /// Total NIC-busy nanoseconds.
    pub busy_ns: u64,
}

/// The lock server's NIC + memory: executes verbs against lock words.
#[derive(Clone, Default)]
pub struct RdmaServer {
    memory: HashMap<u64, u64>,
    busy_until: u64,
    stats: RdmaNicStats,
}

impl RdmaServer {
    /// A server with empty (zeroed) memory.
    pub fn new() -> RdmaServer {
        RdmaServer::default()
    }

    /// Counters.
    pub fn stats(&self) -> RdmaNicStats {
        self.stats
    }

    /// Read a word directly (test/harness introspection).
    pub fn peek(&self, addr: u64) -> u64 {
        self.memory.get(&addr).copied().unwrap_or(0)
    }

    fn serve(&mut self, now_ns: u64, service: SimDuration) -> SimDuration {
        let start = self.busy_until.max(now_ns);
        let done = start + service.as_nanos();
        self.busy_until = done;
        self.stats.busy_ns += service.as_nanos();
        SimDuration::from_nanos(done - now_ns)
    }
}

impl Node<RdmaMsg> for RdmaServer {
    fn on_packet(&mut self, pkt: Packet<RdmaMsg>, ctx: &mut Context<'_, RdmaMsg>) {
        let now = ctx.now().as_nanos();
        match pkt.payload {
            RdmaMsg::FetchAdd { addr, add, token } => {
                let delay = self.serve(now, ATOMIC_SERVICE);
                self.stats.atomics += 1;
                let word = self.memory.entry(addr).or_insert(0);
                let old = *word;
                *word = word.wrapping_add(add);
                ctx.send_after(pkt.src, RdmaMsg::FetchAddReply { addr, old, token }, delay);
            }
            RdmaMsg::CompareSwap {
                addr,
                expect,
                new,
                token,
            } => {
                let delay = self.serve(now, ATOMIC_SERVICE);
                self.stats.atomics += 1;
                let word = self.memory.entry(addr).or_insert(0);
                let old = *word;
                if old == expect {
                    *word = new;
                }
                ctx.send_after(
                    pkt.src,
                    RdmaMsg::CompareSwapReply { addr, old, token },
                    delay,
                );
            }
            RdmaMsg::Read { addr, token } => {
                let delay = self.serve(now, RW_SERVICE);
                self.stats.reads_writes += 1;
                let value = self.peek(addr);
                ctx.send_after(pkt.src, RdmaMsg::ReadReply { addr, value, token }, delay);
            }
            RdmaMsg::Write { addr, value, token } => {
                let delay = self.serve(now, RW_SERVICE);
                self.stats.reads_writes += 1;
                self.memory.insert(addr, value);
                ctx.send_after(pkt.src, RdmaMsg::WriteReply { token }, delay);
            }
            // Replies are never addressed to the server.
            _ => {}
        }
    }

    fn on_timer(&mut self, _token: u64, _ctx: &mut Context<'_, RdmaMsg>) {}

    fn name(&self) -> &str {
        "rdma-server"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlock_sim::{NodeId, SimTime, Simulator};

    struct Collector(Vec<RdmaMsg>);
    impl Node<RdmaMsg> for Collector {
        fn on_packet(&mut self, pkt: Packet<RdmaMsg>, _ctx: &mut Context<'_, RdmaMsg>) {
            self.0.push(pkt.payload);
        }
        fn on_timer(&mut self, _t: u64, _c: &mut Context<'_, RdmaMsg>) {}
    }

    fn setup() -> (Simulator<RdmaMsg>, NodeId, NodeId) {
        let mut sim: Simulator<RdmaMsg> = Simulator::with_seed(3);
        let client = sim.add_node(Box::new(Collector(Vec::new())));
        let server = sim.add_node(Box::new(RdmaServer::new()));
        (sim, client, server)
    }

    #[test]
    fn fetch_add_returns_old_and_accumulates() {
        let (mut sim, client, server) = setup();
        sim.inject(
            client,
            server,
            RdmaMsg::FetchAdd {
                addr: 8,
                add: 5,
                token: 1,
            },
        );
        sim.inject(
            client,
            server,
            RdmaMsg::FetchAdd {
                addr: 8,
                add: 3,
                token: 2,
            },
        );
        sim.run_until(SimTime(10_000_000));
        sim.read_node::<Collector, _>(client, |c| {
            assert_eq!(
                c.0,
                vec![
                    RdmaMsg::FetchAddReply {
                        addr: 8,
                        old: 0,
                        token: 1
                    },
                    RdmaMsg::FetchAddReply {
                        addr: 8,
                        old: 5,
                        token: 2
                    },
                ]
            );
        });
        sim.read_node::<RdmaServer, _>(server, |s| assert_eq!(s.peek(8), 8));
    }

    #[test]
    fn cas_success_and_failure() {
        let (mut sim, client, server) = setup();
        sim.inject(
            client,
            server,
            RdmaMsg::CompareSwap {
                addr: 1,
                expect: 0,
                new: 42,
                token: 1,
            },
        );
        sim.inject(
            client,
            server,
            RdmaMsg::CompareSwap {
                addr: 1,
                expect: 0,
                new: 99,
                token: 2,
            },
        );
        sim.run_until(SimTime(10_000_000));
        sim.read_node::<Collector, _>(client, |c| {
            assert_eq!(
                c.0[0],
                RdmaMsg::CompareSwapReply {
                    addr: 1,
                    old: 0,
                    token: 1
                }
            );
            assert_eq!(
                c.0[1],
                RdmaMsg::CompareSwapReply {
                    addr: 1,
                    old: 42,
                    token: 2
                }
            );
        });
        sim.read_node::<RdmaServer, _>(server, |s| assert_eq!(s.peek(1), 42));
    }

    #[test]
    fn read_write_roundtrip() {
        let (mut sim, client, server) = setup();
        sim.inject(
            client,
            server,
            RdmaMsg::Write {
                addr: 7,
                value: 11,
                token: 1,
            },
        );
        sim.inject(client, server, RdmaMsg::Read { addr: 7, token: 2 });
        sim.run_until(SimTime(10_000_000));
        sim.read_node::<Collector, _>(client, |c| {
            assert!(matches!(c.0[1], RdmaMsg::ReadReply { value: 11, .. }));
        });
    }

    #[test]
    fn nic_serializes_atomics() {
        let (mut sim, client, server) = setup();
        // 100 atomics arriving together take 100 × 400 ns of NIC time.
        for i in 0..100 {
            sim.inject(
                client,
                server,
                RdmaMsg::FetchAdd {
                    addr: 1,
                    add: 1,
                    token: i,
                },
            );
        }
        sim.run_until(SimTime(10_000_000));
        let busy = sim.read_node::<RdmaServer, _>(server, |s| s.stats().busy_ns);
        assert_eq!(busy, 100 * 400);
        sim.read_node::<RdmaServer, _>(server, |s| assert_eq!(s.peek(1), 100));
    }
}
