//! NetChain-style chain replication of one lock partition.
//!
//! Each partition's register state (queue slots, heads/tails, the
//! granted-credit ledger, tenant meters) lives on a *chain* of
//! switches. The head is the only member that admits client
//! operations: it filters stale releases against the replicated credit
//! ledger, assigns each admitted operation a dense sequence number,
//! stamps it with its own clock, applies it to its data plane, and
//! forwards it down the chain as `NetLockMsg::ChainOp`. Every member
//! applies the same `(op, stamp)` against an identical data plane —
//! the state machine is deterministic, so register state is replicated
//! by construction. Only the *tail* emits the resulting grants
//! (tail-ack: a grant reaching a client proves every member applied
//! the op, so it survives any single crash) and acknowledges applied
//! sequence numbers upstream so members can truncate their bounded
//! replication logs.
//!
//! Failure handling is pure control plane, driven by missed control
//! ticks: every member pings the [`ChainController`] from its tick;
//! the controller declares a member dead after three of its ticks of
//! silence, splices it out of the chain (`CtrlChainConfig`), and lets
//! the predecessor *replay its unacknowledged log suffix* to its new
//! successor — that replay is what makes a mid-chain crash lossless. A
//! member promoted to tail re-emits its unacknowledged outputs (exact
//! duplicates of anything the dead tail already sent; clients dedupe
//! by issue stamp). A head death additionally re-routes clients via a
//! fresh `CtrlPartitionMap` broadcast. If a partition loses *every*
//! member, the first one to return from its reboot is reset
//! (`CtrlChainReset`): registers wiped, directory reprogrammed, one
//! lease of grace before granting again (§4.5), because real switch
//! registers do not survive a crash.

use std::collections::{BTreeMap, VecDeque};

use netlock_proto::NetLockMsg;
use netlock_sim::{Context, Node, NodeId, Packet, SimDuration};

use crate::analysis::layout::ProgramLayout;
use crate::control::Allocation;
use crate::dataplane::{DataPlane, DpAction};
use crate::node::{egress_delay, SwitchCore, SwitchStats, TRAVERSAL};
use crate::partition::{replicated_layout, PartitionMap};

/// A chain member's ping cadence and lease-sweep granularity, and the
/// controller's failure-detector polling interval: sub-millisecond
/// failure detection.
pub const CHAIN_TICK: SimDuration = SimDuration::from_micros(200);

/// Timer token of a chain member's control tick (ping + lease sweep).
const TIMER_CHAIN_TICK: u64 = 1;
/// Timer token of the controller's failure-detector tick.
const TIMER_CONTROLLER_TICK: u64 = 1;

/// One logged, applied operation: what a predecessor retransmits to a
/// spliced-in successor, and what a freshly promoted tail re-emits.
#[derive(Clone, Debug)]
struct LogEntry {
    seq: u64,
    stamp_ns: u64,
    op: NetLockMsg,
    /// The data-plane outputs this op produced (identical on every
    /// member); kept so a new tail can re-emit without re-applying.
    outputs: Vec<DpAction>,
    /// Extra pipeline passes the apply cost (latency accounting).
    extra_passes: u64,
}

/// Configuration of one chain member.
#[derive(Clone, Debug)]
pub struct ReplConfig {
    /// Partition this chain serves.
    pub partition: u16,
    /// This member's index in the chain as originally deployed.
    pub member: u16,
    /// The original chain, head first (node ids of all members).
    pub chain: Vec<NodeId>,
    /// The chain controller node.
    pub controller: NodeId,
    /// Lease duration (head force-releases expired holders). Zero
    /// disables sweeping.
    pub lease: SimDuration,
}

/// One switch in a partition's replication chain.
pub struct ReplSwitch {
    /// The data plane, its program (reloaded on reset), the emitter
    /// and the counters; a chain member has no lock servers, so every
    /// forward is a drop.
    core: SwitchCore,
    cfg: ReplConfig,
    /// This member's own node id (`cfg.chain[cfg.member]`).
    me: NodeId,
    /// Current chain epoch (bumped by every controller config).
    epoch: u32,
    /// The live chain, head first.
    chain: Vec<NodeId>,
    /// Highest sequence number applied locally.
    last_applied: u64,
    /// Highest sequence number acknowledged by the tail.
    acked: u64,
    /// Ops received out of order (cross-link races during a splice),
    /// held until the gap closes.
    pending: BTreeMap<u64, (u64, NetLockMsg)>,
    /// Applied-but-unacknowledged ops, ascending seq. Kept by every
    /// member that has (or had) a successor; the tail is its own ack
    /// and logs nothing.
    log: VecDeque<LogEntry>,
    /// Refuse acquires until this stamp (post-reset §4.5 grace).
    grace_until_ns: u64,
    /// Sabotage hook: drop the log-replay / re-emit duty on splice.
    replay_disabled: bool,
}

impl ReplSwitch {
    /// Build a chain member around an empty data plane and program it
    /// with `program`, which the member keeps to reprogram itself after
    /// a `CtrlChainReset` (the control plane's copy of the directory).
    pub fn new(dp: DataPlane, program: &Allocation, cfg: ReplConfig) -> ReplSwitch {
        assert!(
            (cfg.member as usize) < cfg.chain.len(),
            "member index outside chain"
        );
        let me = cfg.chain[cfg.member as usize];
        let chain = cfg.chain.clone();
        let mut core = SwitchCore::new(dp, Vec::new());
        core.program(program);
        ReplSwitch {
            core,
            cfg,
            me,
            epoch: 0,
            chain,
            last_applied: 0,
            acked: 0,
            pending: BTreeMap::new(),
            log: VecDeque::new(),
            grace_until_ns: 0,
            replay_disabled: false,
        }
    }

    /// Disable log replay and tail re-emission on chain repair
    /// (chaos-suite sabotage hook: proves the oracle notices when the
    /// failover path silently loses the in-flight window).
    #[doc(hidden)]
    pub fn sabotage_disable_replay(&mut self) {
        self.replay_disabled = true;
    }

    /// Node counters.
    pub fn stats(&self) -> SwitchStats {
        self.core.stats
    }

    /// Data-plane handle (tests / harness).
    pub fn dataplane(&self) -> &DataPlane {
        &self.core.dp
    }

    /// Current chain epoch.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Highest locally applied sequence number.
    pub fn last_applied(&self) -> u64 {
        self.last_applied
    }

    /// The feasibility layout of this member: the queue program plus
    /// the replication metadata (see [`replicated_layout`]).
    pub fn layout(&self, log_window: usize) -> ProgramLayout {
        replicated_layout(&self.core.dp, log_window)
    }

    fn position(&self) -> Option<usize> {
        self.chain.iter().position(|&n| n == self.me)
    }

    fn is_head(&self) -> bool {
        self.position() == Some(0)
    }

    fn is_tail(&self) -> bool {
        self.position().is_some_and(|p| p + 1 == self.chain.len())
    }

    fn successor(&self) -> Option<NodeId> {
        let p = self.position()?;
        self.chain.get(p + 1).copied()
    }

    /// Head only: admit one client operation into the chain.
    fn admit(&mut self, op: NetLockMsg, ctx: &mut Context<'_, NetLockMsg>) {
        let now = ctx.now().as_nanos();
        if let NetLockMsg::Acquire(_) = &op {
            if now < self.grace_until_ns {
                // §4.5 grace after a state-losing reset: a pre-crash
                // holder's lease may still be running; granting now
                // could double-grant. Drop; the client's retry lands
                // after the window.
                self.core.stats.grace_drops += 1;
                return;
            }
        }
        if let NetLockMsg::Release(rel) = &op {
            // Read-only: the credit is consumed when the release op is
            // *applied*, so every member's ledger stays identical.
            if !self.core.dp.guard_authorizes(rel.lock, rel.txn, rel.mode) {
                self.core.stats.stale_releases_filtered += 1;
                return;
            }
        }
        let seq = self.last_applied + 1;
        self.ingest(seq, now, op, ctx);
    }

    /// Apply-or-buffer one sequenced op (head admission path and
    /// `ChainOp` receipt path converge here).
    fn ingest(
        &mut self,
        seq: u64,
        stamp_ns: u64,
        op: NetLockMsg,
        ctx: &mut Context<'_, NetLockMsg>,
    ) {
        if seq <= self.last_applied {
            self.core.stats.dup_ops_ignored += 1;
            return;
        }
        if seq > self.last_applied + 1 {
            // Gap: a replayed suffix and late in-flight ops from a
            // spliced-out predecessor can interleave across links.
            self.pending.insert(seq, (stamp_ns, op));
            return;
        }
        self.apply(seq, stamp_ns, op, ctx);
        while let Some((&next, _)) = self.pending.first_key_value() {
            if next != self.last_applied + 1 {
                // Drop already-applied stragglers, keep future ones.
                if next <= self.last_applied {
                    self.pending.pop_first();
                    self.core.stats.dup_ops_ignored += 1;
                    continue;
                }
                break;
            }
            let (seq, (stamp_ns, op)) = self.pending.pop_first().expect("checked non-empty");
            self.apply(seq, stamp_ns, op, ctx);
        }
    }

    fn apply(
        &mut self,
        seq: u64,
        stamp_ns: u64,
        op: NetLockMsg,
        ctx: &mut Context<'_, NetLockMsg>,
    ) {
        self.last_applied = seq;
        self.core.stats.ops_applied += 1;
        // The successor and the log each keep the op; the tail has
        // neither, and hands its only copy to the data plane.
        let Some(succ) = self.successor() else {
            self.process(op, stamp_ns);
            self.core.emit(ctx);
            self.send_acks(ctx);
            return;
        };
        self.core.stats.ops_forwarded += 1;
        ctx.send_after(
            succ,
            NetLockMsg::ChainOp {
                partition: self.cfg.partition,
                seq,
                stamp_ns,
                op: Box::new(op.clone()),
            },
            TRAVERSAL,
        );
        let extra_passes = self.process(op.clone(), stamp_ns);
        self.log.push_back(LogEntry {
            seq,
            stamp_ns,
            op,
            outputs: self.core.actions.to_vec(),
            extra_passes,
        });
    }

    /// Run one op through the (guarded) data plane into the action buffer;
    /// returns the extra pipeline passes it cost. Every release is
    /// applied by [`DataPlane::force_release`]: a client release was
    /// authorized at the head against this same ledger, so it spends
    /// its own credit as an unforced release would, and a sweep release
    /// of a holder whose grant is already spent still frees its slot.
    fn process(&mut self, op: NetLockMsg, stamp_ns: u64) -> u64 {
        let core = &mut self.core;
        match op {
            NetLockMsg::Release(rel) => core.dp.force_release(rel, stamp_ns, &mut core.actions),
            op => core.dp.process(op, stamp_ns, &mut core.actions),
        }
        core.actions.resubmits()
    }

    /// Tail: cumulative apply-ack to every upstream member.
    fn send_acks(&mut self, ctx: &mut Context<'_, NetLockMsg>) {
        let ack = NetLockMsg::ChainAck {
            partition: self.cfg.partition,
            seq: self.last_applied,
        };
        let upstream = self.position().unwrap_or(0);
        for &up in &self.chain[..upstream] {
            ctx.send_after(up, ack.clone(), TRAVERSAL);
        }
    }

    fn on_ack(&mut self, seq: u64) {
        // A sole-member chain has no upstream; any ack still in flight
        // is from a pre-reset epoch and must not truncate the new log.
        if self.chain.len() <= 1 {
            return;
        }
        if seq > self.acked {
            self.acked = seq;
            while self.log.front().is_some_and(|e| e.seq <= self.acked) {
                self.log.pop_front();
            }
        }
    }

    /// Accept a spliced chain layout from the controller.
    fn on_config(&mut self, epoch: u32, members: &[u32], ctx: &mut Context<'_, NetLockMsg>) {
        if epoch <= self.epoch {
            return;
        }
        let was_tail = self.is_tail();
        let old_succ = self.successor();
        self.epoch = epoch;
        self.chain = members.iter().map(|&m| NodeId(m)).collect();
        self.core.stats.splices += 1;
        if self.position().is_none() {
            // Spliced out while alive (declared dead by the detector):
            // go passive. State is kept but never consulted again.
            return;
        }
        let new_succ = self.successor();
        if self.replay_disabled {
            return;
        }
        if let Some(succ) = new_succ {
            if old_succ != Some(succ) {
                // Replay the in-flight window: everything applied here
                // that the tail has not acknowledged. The new successor
                // ignores what it already has (seq dedupe) and fills
                // whatever died with the old link.
                for entry in &self.log {
                    ctx.send_after(
                        succ,
                        NetLockMsg::ChainOp {
                            partition: self.cfg.partition,
                            seq: entry.seq,
                            stamp_ns: entry.stamp_ns,
                            op: Box::new(entry.op.clone()),
                        },
                        TRAVERSAL,
                    );
                    self.core.stats.replayed += 1;
                }
            }
        }
        if self.is_tail() && !was_tail {
            // Promoted to tail: the dead tail may have died before
            // emitting some applied outputs. Re-emit everything
            // unacknowledged — exact duplicates are deduped by the
            // client (issue-stamp match), lost ones become visible for
            // the first time. This is the tail-ack guarantee.
            for entry in &self.log {
                let delay = egress_delay(entry.extra_passes);
                for &act in &entry.outputs {
                    self.core.route(act, delay, ctx);
                }
                self.core.stats.reemitted += 1;
            }
            self.send_acks(ctx);
        }
    }

    /// Wipe and rejoin as a sole-member chain after a full-chain loss.
    fn on_reset(&mut self, epoch: u32, ctx: &mut Context<'_, NetLockMsg>) {
        if epoch <= self.epoch {
            return;
        }
        self.epoch = epoch;
        self.core.reload(ctx.now().as_nanos());
        self.chain = vec![self.me];
        self.last_applied = 0;
        self.acked = 0;
        self.pending.clear();
        self.log.clear();
        // One lease of grace (plus a tick of slack): pre-crash holders
        // may still be inside their leases.
        self.grace_until_ns =
            ctx.now().as_nanos() + self.cfg.lease.as_nanos() + CHAIN_TICK.as_nanos();
        self.core.stats.resets += 1;
        // The crash killed the timer chain; restart it.
        ctx.set_timer(CHAIN_TICK, TIMER_CHAIN_TICK);
    }

    /// Tell the controller this member is alive.
    fn ping(&self, ctx: &mut Context<'_, NetLockMsg>) {
        let (partition, member, epoch) = (self.cfg.partition, self.cfg.member, self.epoch);
        let ping = NetLockMsg::CtrlChainPing {
            partition,
            member,
            epoch,
        };
        ctx.send_after(self.cfg.controller, ping, TRAVERSAL);
    }

    fn chain_tick(&mut self, ctx: &mut Context<'_, NetLockMsg>) {
        if self.position().is_some() {
            self.ping(ctx);
            // Lease sweep is a head duty: expiries become ordinary
            // replicated ops, so every member's queues agree. Every
            // expired holder goes, whether or not its grant is still
            // spendable: a slot whose grant an out-of-order release
            // already spent would otherwise hold the lock for good.
            if self.is_head() {
                let now = ctx.now().as_nanos();
                for rel in self.core.expired_leases(now, self.cfg.lease) {
                    let seq = self.last_applied + 1;
                    self.ingest(seq, now, NetLockMsg::Release(rel), ctx);
                }
            }
        }
        ctx.set_timer(CHAIN_TICK, TIMER_CHAIN_TICK);
    }
}

impl Node<NetLockMsg> for ReplSwitch {
    fn on_start(&mut self, ctx: &mut Context<'_, NetLockMsg>) {
        ctx.set_timer(CHAIN_TICK, TIMER_CHAIN_TICK);
    }

    fn on_packet(&mut self, pkt: Packet<NetLockMsg>, ctx: &mut Context<'_, NetLockMsg>) {
        match pkt.payload {
            op @ (NetLockMsg::Acquire(_) | NetLockMsg::Release(_)) => {
                if !self.is_head() {
                    // Stale partition map (head moved) or passive
                    // member: drop, the retry re-resolves the route.
                    self.core.stats.misrouted += 1;
                    return;
                }
                self.admit(op, ctx);
            }
            NetLockMsg::ChainOp {
                partition,
                seq,
                stamp_ns,
                op,
            } if partition == self.cfg.partition && self.position().is_some() => {
                self.ingest(seq, stamp_ns, *op, ctx);
            }
            NetLockMsg::ChainAck { partition, seq } if partition == self.cfg.partition => {
                self.on_ack(seq);
            }
            // Controller probe (it thinks we may be back from the
            // dead): answer with a liveness ping.
            NetLockMsg::CtrlChainPing { partition, .. } if partition == self.cfg.partition => {
                self.ping(ctx);
            }
            NetLockMsg::CtrlChainConfig {
                partition,
                epoch,
                members,
            } if partition == self.cfg.partition => {
                self.on_config(epoch, &members, ctx);
            }
            NetLockMsg::CtrlChainReset { partition, epoch } if partition == self.cfg.partition => {
                self.on_reset(epoch, ctx);
            }
            // Grants and the rest route by destination; a chain member
            // is never that destination.
            _ => {}
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, NetLockMsg>) {
        if token == TIMER_CHAIN_TICK {
            self.chain_tick(ctx);
        }
    }

    fn name(&self) -> &str {
        "repl-switch"
    }
}

/// Per-partition bookkeeping inside the controller.
#[derive(Clone, Debug)]
struct PartitionState {
    /// The chain as originally deployed, head first.
    members: Vec<NodeId>,
    /// Liveness per original member index.
    alive: Vec<bool>,
    /// Stamp of the last ping per original member index.
    last_ping_ns: Vec<u64>,
    /// Current chain epoch.
    epoch: u32,
}

impl PartitionState {
    fn live_chain(&self) -> Vec<NodeId> {
        self.members
            .iter()
            .zip(&self.alive)
            .filter(|(_, &a)| a)
            .map(|(&m, _)| m)
            .collect()
    }
}

/// Controller counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ControllerStats {
    /// Members declared dead by the missed-tick detector.
    pub deaths_detected: u64,
    /// Chain reconfigurations issued.
    pub splices: u64,
    /// Sole-survivor resets issued.
    pub resets: u64,
    /// Partition-map broadcasts sent (per client message).
    pub map_broadcasts: u64,
}

/// Controller ticks ([`CHAIN_TICK`]) of silence after which a member is
/// declared dead: comfortably more than the member tick plus network
/// latency.
const DEAD_AFTER_TICKS: u64 = 3;

/// The chain-repair control plane (one per cluster, like the paper's
/// lock-management controller): collects liveness pings, splices
/// chains around dead members, resets sole survivors, and re-routes
/// clients when a head moves. It deliberately holds *no* lock state —
/// repair decisions are made purely from membership, which keeps the
/// decision auditable (the *Paxos made switch-y* argument).
pub struct ChainController {
    partitions: Vec<PartitionState>,
    /// Every client that routes by partition map.
    clients: Vec<NodeId>,
    /// Current head per partition (broadcast state).
    map: PartitionMap,
    stats: ControllerStats,
}

impl ChainController {
    /// Build a controller over `chains[p]` = partition `p`'s original
    /// chain (head first). `clients` receive partition-map updates.
    pub fn new(chains: Vec<Vec<NodeId>>, clients: Vec<NodeId>) -> Self {
        assert!(!chains.is_empty(), "controller needs at least one chain");
        let map = PartitionMap::new(chains.iter().map(|c| c[0]).collect());
        let partitions = chains
            .into_iter()
            .map(|members| {
                let n = members.len();
                PartitionState {
                    members,
                    alive: vec![true; n],
                    last_ping_ns: vec![0; n],
                    epoch: 0,
                }
            })
            .collect();
        ChainController {
            partitions,
            clients,
            map,
            stats: ControllerStats::default(),
        }
    }

    /// Controller counters.
    pub fn stats(&self) -> ControllerStats {
        self.stats
    }

    /// Broadcast the routing map to every client.
    fn broadcast_map(&mut self, ctx: &mut Context<'_, NetLockMsg>) {
        let msg = self.map.publish();
        for &c in &self.clients {
            self.stats.map_broadcasts += 1;
            ctx.send_after(c, msg.clone(), TRAVERSAL);
        }
    }

    fn on_ping(&mut self, partition: u16, member: u16, ctx: &mut Context<'_, NetLockMsg>) {
        let now = ctx.now().as_nanos();
        let Some(p) = self.partitions.get_mut(partition as usize) else {
            return;
        };
        let m = member as usize;
        if m >= p.members.len() {
            return;
        }
        p.last_ping_ns[m] = now;
        if p.alive[m] {
            return;
        }
        // A declared-dead member is talking again.
        if p.alive.iter().any(|&a| a) {
            // The chain got repaired without it; it stays retired
            // (state transfer back into a live chain is out of scope —
            // the chain simply runs shorter).
            return;
        }
        // Sole survivor of a fully-dead partition: reset it to an
        // empty, freshly programmed chain of one and re-route clients.
        p.alive[m] = true;
        p.epoch += 1;
        self.stats.resets += 1;
        let epoch = p.epoch;
        let node = p.members[m];
        ctx.send_after(
            node,
            NetLockMsg::CtrlChainReset { partition, epoch },
            TRAVERSAL,
        );
        self.map.set_head(partition, node);
        self.broadcast_map(ctx);
    }

    fn detector_tick(&mut self, ctx: &mut Context<'_, NetLockMsg>) {
        let now = ctx.now().as_nanos();
        let dead_after = CHAIN_TICK.as_nanos() * DEAD_AFTER_TICKS;
        let mut heads_changed = false;
        for pi in 0..self.partitions.len() {
            let p = &mut self.partitions[pi];
            let mut changed = false;
            for m in 0..p.members.len() {
                if p.alive[m] && now.saturating_sub(p.last_ping_ns[m]) > dead_after {
                    p.alive[m] = false;
                    changed = true;
                    self.stats.deaths_detected += 1;
                }
            }
            if changed {
                let live = p.live_chain();
                if !live.is_empty() {
                    p.epoch += 1;
                    self.stats.splices += 1;
                    let epoch = p.epoch;
                    let wire: Box<[u32]> = live.iter().map(|n| n.0).collect();
                    for &member in &live {
                        ctx.send_after(
                            member,
                            NetLockMsg::CtrlChainConfig {
                                partition: pi as u16,
                                epoch,
                                members: wire.clone(),
                            },
                            TRAVERSAL,
                        );
                    }
                    heads_changed |= self.map.set_head(pi as u16, live[0]);
                }
                // A fully-dead partition waits for a member to return;
                // clients keep retrying into the void until then.
            }
            // Probe fully-dead partitions so a revived member (whose
            // own timer chain died with it) gets a reason to speak.
            let p = &self.partitions[pi];
            if p.alive.iter().all(|&a| !a) {
                for (m, &node) in p.members.iter().enumerate() {
                    ctx.send_after(
                        node,
                        NetLockMsg::CtrlChainPing {
                            partition: pi as u16,
                            member: m as u16,
                            epoch: p.epoch,
                        },
                        TRAVERSAL,
                    );
                }
            }
        }
        if heads_changed {
            self.broadcast_map(ctx);
        }
        ctx.set_timer(CHAIN_TICK, TIMER_CONTROLLER_TICK);
    }
}

impl Node<NetLockMsg> for ChainController {
    fn on_start(&mut self, ctx: &mut Context<'_, NetLockMsg>) {
        // Treat deployment time as one fresh ping everywhere: the
        // detector starts counting silence from t=0.
        ctx.set_timer(CHAIN_TICK, TIMER_CONTROLLER_TICK);
    }

    fn on_packet(&mut self, pkt: Packet<NetLockMsg>, ctx: &mut Context<'_, NetLockMsg>) {
        if let NetLockMsg::CtrlChainPing {
            partition, member, ..
        } = pkt.payload
        {
            self.on_ping(partition, member, ctx);
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, NetLockMsg>) {
        if token == TIMER_CONTROLLER_TICK {
            self.detector_tick(ctx);
        }
    }

    fn name(&self) -> &str {
        "chain-controller"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::{knapsack_allocate, LockStats};
    use crate::shared_queue::SharedQueueLayout;
    use netlock_proto::{
        ClientAddr, LockId, LockMode, LockRequest, Priority, ReleaseRequest, TenantId, TxnId,
    };
    use netlock_sim::{SimTime, Simulator};

    struct Sink(Vec<NetLockMsg>);
    impl Node<NetLockMsg> for Sink {
        fn on_packet(&mut self, pkt: Packet<NetLockMsg>, _ctx: &mut Context<'_, NetLockMsg>) {
            self.0.push(pkt.payload);
        }
        fn on_timer(&mut self, _t: u64, _c: &mut Context<'_, NetLockMsg>) {}
    }

    fn acquire(lock: u32, txn: u64, client: u32, at: u64) -> NetLockMsg {
        acquire_in(LockMode::Exclusive, lock, txn, client, at)
    }

    fn acquire_in(mode: LockMode, lock: u32, txn: u64, client: u32, at: u64) -> NetLockMsg {
        NetLockMsg::Acquire(LockRequest {
            lock: LockId(lock),
            mode,
            txn: TxnId(txn),
            client: ClientAddr(client),
            tenant: TenantId(0),
            priority: Priority(0),
            issued_at_ns: at,
        })
    }

    fn release(lock: u32, txn: u64, client: u32) -> NetLockMsg {
        release_in(LockMode::Exclusive, lock, txn, client)
    }

    fn release_in(mode: LockMode, lock: u32, txn: u64, client: u32) -> NetLockMsg {
        NetLockMsg::Release(ReleaseRequest {
            lock: LockId(lock),
            txn: TxnId(txn),
            mode,
            client: ClientAddr(client),
            priority: Priority(0),
        })
    }

    fn program() -> (DataPlane, Allocation) {
        let dp = DataPlane::new_fcfs(&SharedQueueLayout::small(2, 64, 16));
        let stats = LockStats::uniform((0..4).map(LockId), 8, 1);
        (dp, knapsack_allocate(&stats, 64))
    }

    /// client = node 0, controller = node 1, chain = nodes 2..2+factor.
    fn chain_setup(
        factor: usize,
        lease: SimDuration,
    ) -> (Simulator<NetLockMsg>, NodeId, NodeId, Vec<NodeId>) {
        let mut sim: Simulator<NetLockMsg> = Simulator::with_seed(7);
        let client = sim.add_node(Box::new(Sink(Vec::new())));
        let members: Vec<NodeId> = (0..factor as u32).map(|i| NodeId(2 + i)).collect();
        let controller = sim.add_node(Box::new(ChainController::new(
            vec![members.clone()],
            vec![client],
        )));
        assert_eq!(controller, NodeId(1));
        for (i, &expect) in members.iter().enumerate() {
            let (dp, alloc) = program();
            let got = sim.add_node(Box::new(ReplSwitch::new(
                dp,
                &alloc,
                ReplConfig {
                    partition: 0,
                    member: i as u16,
                    chain: members.clone(),
                    controller,
                    lease,
                },
            )));
            assert_eq!(got, expect);
        }
        (sim, client, controller, members)
    }

    fn grants_of(sink: &Sink) -> Vec<u64> {
        sink.0
            .iter()
            .filter_map(|m| match m {
                NetLockMsg::Grant(g) => Some(g.txn.0),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn tail_emits_and_chain_stays_identical() {
        let (mut sim, client, _ctl, members) = chain_setup(3, SimDuration::from_millis(50));
        sim.inject(client, members[0], acquire(1, 10, client.0, 0));
        sim.inject(client, members[0], acquire(2, 11, client.0, 0));
        sim.run_until(SimTime(5_000_000));
        sim.read_node::<Sink, _>(client, |s| {
            assert_eq!(grants_of(s), vec![10, 11]);
        });
        // Only the tail emitted; every member applied both ops.
        for (i, &m) in members.iter().enumerate() {
            sim.read_node::<ReplSwitch, _>(m, |r| {
                assert_eq!(r.last_applied(), 2, "member {i}");
                let expect = if i == members.len() - 1 { 2 } else { 0 };
                assert_eq!(r.stats().grants_sent, expect, "member {i}");
            });
        }
        // Tail acks propagated: upstream logs truncated. The tail is
        // its own ack and never logged.
        for &m in &members {
            sim.read_node::<ReplSwitch, _>(m, |r| {
                assert!(r.log.is_empty(), "log should be acked away");
            });
        }
    }

    #[test]
    fn mid_chain_crash_replays_in_flight_window() {
        let (mut sim, client, _ctl, members) = chain_setup(3, SimDuration::from_millis(50));
        // Two ops arrive at the head at ~1.2µs; the forwarded ChainOps
        // reach the middle at ~2.9µs. Kill the middle at 2µs: the ops
        // are applied at the head but lost in flight.
        sim.inject(client, members[0], acquire(1, 10, client.0, 0));
        sim.inject(client, members[0], acquire(2, 11, client.0, 0));
        sim.run_until(SimTime(2_000));
        sim.fail_node(members[1]);
        sim.run_until(SimTime(20_000_000));
        // Detection + splice + replay must surface both grants.
        sim.read_node::<Sink, _>(client, |s| {
            assert_eq!(grants_of(s), vec![10, 11]);
        });
        sim.read_node::<ReplSwitch, _>(members[0], |r| {
            assert!(r.stats().replayed >= 2, "head must replay the window");
            assert_eq!(r.epoch(), 1);
        });
        // Chain still works end to end after the splice.
        sim.inject(client, members[0], release(1, 10, client.0));
        sim.inject(client, members[0], acquire(1, 12, client.0, 0));
        sim.run_until(SimTime(30_000_000));
        sim.read_node::<Sink, _>(client, |s| {
            assert_eq!(grants_of(s), vec![10, 11, 12]);
        });
    }

    #[test]
    fn tail_crash_promotes_and_reemits() {
        let (mut sim, client, _ctl, members) = chain_setup(2, SimDuration::from_millis(50));
        sim.inject(client, members[0], acquire(1, 10, client.0, 0));
        sim.run_until(SimTime(1_500));
        // The head has applied and forwarded; the tail dies before its
        // ChainOp arrives — the grant was never emitted.
        sim.fail_node(members[1]);
        sim.run_until(SimTime(20_000_000));
        sim.read_node::<Sink, _>(client, |s| {
            assert_eq!(grants_of(s), vec![10], "promoted tail must re-emit");
        });
        sim.read_node::<ReplSwitch, _>(members[0], |r| {
            assert!(r.stats().reemitted >= 1);
            assert!(r.is_tail() && r.is_head());
        });
    }

    #[test]
    fn head_crash_reroutes_clients() {
        let (mut sim, client, _ctl, members) = chain_setup(2, SimDuration::from_millis(50));
        sim.inject(client, members[0], acquire(1, 10, client.0, 0));
        sim.run_until(SimTime(1_000_000));
        sim.fail_node(members[0]);
        sim.run_until(SimTime(20_000_000));
        // The controller moved the head and told the client.
        sim.read_node::<Sink, _>(client, |s| {
            assert!(
                s.0.iter().any(|m| matches!(
                    m,
                    NetLockMsg::CtrlPartitionMap { heads, .. } if heads[0] == members[1].0
                )),
                "client must get the new routing map"
            );
        });
        // The survivor serves as head now.
        sim.inject(client, members[1], acquire(2, 11, client.0, 0));
        sim.run_until(SimTime(30_000_000));
        sim.read_node::<Sink, _>(client, |s| {
            assert_eq!(grants_of(s), vec![10, 11]);
        });
    }

    #[test]
    fn sole_survivor_resets_with_grace() {
        let lease = SimDuration::from_millis(2);
        let (mut sim, client, _ctl, members) = chain_setup(1, lease);
        sim.inject(client, members[0], acquire(1, 10, client.0, 0));
        sim.run_until(SimTime(1_000_000));
        sim.fail_node(members[0]);
        sim.run_until(SimTime(6_000_000));
        sim.revive_node(members[0]);
        // The controller's probes find it; reset + grace follow. Step
        // until the reset is seen: it happened at most one step ago.
        let resets = |sim: &Simulator<NetLockMsg>| {
            sim.read_node::<ReplSwitch, _>(members[0], |r| r.stats().resets)
        };
        while resets(&sim) == 0 {
            assert!(
                sim.now() < SimTime(9_000_000),
                "no reset 3 ms after revival"
            );
            sim.run_for(SimDuration::from_micros(10));
        }
        let reset_at = sim.now().as_nanos();
        sim.read_node::<ReplSwitch, _>(members[0], |r| {
            assert_eq!(r.stats().resets, 1);
            assert_eq!(r.last_applied(), 0, "registers wiped");
        });
        // Mid-grace acquires are refused (a pre-crash lease may run).
        sim.run_until(SimTime(reset_at + lease.as_nanos() / 2));
        sim.inject(client, members[0], acquire(1, 11, client.0, 0));
        sim.run_until(SimTime(reset_at + lease.as_nanos() * 3 / 4));
        sim.read_node::<ReplSwitch, _>(members[0], |r| {
            assert!(r.stats().grace_drops >= 1);
        });
        // After the grace window (one lease and one tick from the reset)
        // service resumes from empty state.
        sim.run_until(SimTime(reset_at + lease.as_nanos() + CHAIN_TICK.as_nanos()));
        sim.inject(client, members[0], acquire(1, 12, client.0, 0));
        sim.run_until(SimTime(30_000_000));
        sim.read_node::<Sink, _>(client, |s| {
            assert_eq!(grants_of(s), vec![10, 12]);
        });
    }

    /// Shared holders 10 and 11 are granted, exclusive 12 waits; 11
    /// releases first. The blind dequeue frees 10's slot and spends
    /// 11's credit, so 11's slot holds a grant whose credit is gone and
    /// 10's credit has no slot. When 11's lease runs out the head must
    /// still sweep that slot, or 12 waits forever.
    #[test]
    fn sweep_frees_a_holder_whose_grant_is_already_spent() {
        let (mut sim, client, _ctl, members) = chain_setup(1, SimDuration::from_millis(2));
        for (txn, mode) in [
            (10, LockMode::Shared),
            (11, LockMode::Shared),
            (12, LockMode::Exclusive),
        ] {
            sim.inject(client, members[0], acquire_in(mode, 1, txn, client.0, 0));
        }
        sim.run_until(SimTime(100_000));
        sim.read_node::<Sink, _>(client, |s| assert_eq!(grants_of(s), vec![10, 11]));
        sim.inject(
            client,
            members[0],
            release_in(LockMode::Shared, 1, 11, client.0),
        );
        sim.run_until(SimTime(30_000_000));
        sim.read_node::<Sink, _>(client, |s| {
            assert_eq!(grants_of(s), vec![10, 11, 12], "the lock must not wedge");
        });
    }

    /// Records each grant's txn with its arrival time.
    struct StampedGrants(Vec<(SimTime, u64)>);
    impl Node<NetLockMsg> for StampedGrants {
        fn on_packet(&mut self, pkt: Packet<NetLockMsg>, ctx: &mut Context<'_, NetLockMsg>) {
            if let NetLockMsg::Grant(g) = pkt.payload {
                self.0.push((ctx.now(), g.txn.0));
            }
        }
        fn on_timer(&mut self, _t: u64, _c: &mut Context<'_, NetLockMsg>) {}
    }

    /// Both switch nodes drive their data plane through one driver: a
    /// sole-member chain and a rack switch with no lock servers, given
    /// one program and one sequence of acquires and releases, deliver
    /// the same grants at the same times and count the same grants,
    /// drops, stale releases and lease expirations.
    #[test]
    fn sole_chain_member_matches_a_serverless_rack_switch() {
        use crate::node::{SwitchConfig, SwitchNode};
        let layout = SharedQueueLayout::small(2, 64, 16);
        // Three locks fit; lock 3 stays with a server neither has.
        let alloc = knapsack_allocate(&LockStats::uniform((0..4).map(LockId), 8, 1), 24);
        assert_eq!(alloc.in_server.len(), 1);
        let lease = SimDuration::from_millis(50);
        let shared = LockMode::Shared;
        let ops = [
            acquire(0, 1, 0, 0),
            acquire_in(shared, 0, 2, 0, 0),
            acquire_in(shared, 0, 3, 0, 0),
            acquire(1, 4, 0, 0),
            release(0, 1, 0),
            release(0, 1, 0),    // stale: already released
            acquire(3, 5, 0, 0), // forwarded to no server: dropped
            acquire(9, 6, 0, 0), // unknown lock: dropped
            acquire(1, 7, 0, 0),
            release_in(shared, 0, 3, 0),
            release(1, 4, 0),
        ];
        let drive = |sim: &mut Simulator<NetLockMsg>, switch: NodeId| {
            let client = NodeId(0);
            for (i, op) in ops.iter().enumerate() {
                sim.inject(client, switch, op.clone());
                sim.run_until(SimTime(10_000 * (i as u64 + 1)));
            }
            sim.run_until(SimTime(1_000_000));
            sim.read_node::<StampedGrants, _>(client, |s| s.0.clone())
        };
        let counters = |s: SwitchStats| {
            (
                s.grants_sent,
                s.grants_to_db,
                s.drops,
                s.stale_releases_filtered,
                s.lease_expirations,
            )
        };

        let mut chain: Simulator<NetLockMsg> = Simulator::with_seed(7);
        chain.add_node(Box::new(StampedGrants(Vec::new())));
        let member = NodeId(2);
        let controller = chain.add_node(Box::new(ChainController::new(
            vec![vec![member]],
            vec![NodeId(0)],
        )));
        let cfg = ReplConfig {
            partition: 0,
            member: 0,
            chain: vec![member],
            controller,
            lease,
        };
        let dp = DataPlane::new_fcfs(&layout);
        assert_eq!(
            chain.add_node(Box::new(ReplSwitch::new(dp, &alloc, cfg))),
            member
        );
        let chain_grants = drive(&mut chain, member);
        let chain_stats = chain.read_node::<ReplSwitch, _>(member, |r| counters(r.stats()));

        let mut rack: Simulator<NetLockMsg> = Simulator::with_seed(7);
        rack.add_node(Box::new(StampedGrants(Vec::new())));
        let cfg = SwitchConfig {
            lease,
            ..Default::default()
        };
        let mut switch = SwitchNode::new(DataPlane::new_fcfs(&layout), cfg, vec![]);
        switch.program(&alloc);
        let switch = rack.add_node(Box::new(switch));
        let rack_grants = drive(&mut rack, switch);
        let rack_stats = rack.read_node::<SwitchNode, _>(switch, |s| counters(s.stats()));

        assert_eq!(
            chain_grants.iter().map(|&(_, txn)| txn).collect::<Vec<_>>(),
            vec![1, 4, 2, 3, 7]
        );
        assert_eq!(chain_grants, rack_grants);
        assert_eq!(chain_stats, (5, 0, 2, 1, 0));
        assert_eq!(chain_stats, rack_stats);
    }

    #[test]
    fn sabotaged_replay_loses_the_window() {
        let (mut sim, client, _ctl, members) = chain_setup(3, SimDuration::from_millis(200));
        for m in &members {
            sim.with_node::<ReplSwitch, _>(*m, |r| r.sabotage_disable_replay());
        }
        sim.inject(client, members[0], acquire(1, 10, client.0, 0));
        sim.run_until(SimTime(2_000));
        sim.fail_node(members[1]);
        sim.run_until(SimTime(20_000_000));
        // No replay: the op never reaches the tail, the grant is lost
        // (the lease is long enough that sweeping can't paper over it).
        sim.read_node::<Sink, _>(client, |s| {
            assert_eq!(grants_of(s), Vec::<u64>::new());
        });
    }
}
