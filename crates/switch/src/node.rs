//! The lock-switch simulation node.
//!
//! Wraps the [`DataPlane`] state machine as a `netlock-sim` node: packets
//! in, packets out, with the switch's traversal latency and per-resubmit
//! cost charged on every emission. Also hosts the control-plane loop
//! (lease sweeping, lock migration) that on hardware runs on the switch
//! CPU and talks to the ASIC over PCIe.

use std::collections::{HashMap, HashSet};

use netlock_proto::{GrantMsg, LockId, NetLockMsg, ReleaseRequest};
use netlock_sim::{Context, Node, NodeId, Packet, SimDuration};

use crate::action_buf::ActionBuf;
use crate::control::{self, apply_allocation, Allocation, MigrationOp};
use crate::dataplane::{DataPlane, DpAction};

/// Timer token for the control-plane tick.
const TIMER_CONTROL_TICK: u64 = 1;
/// Timer token for the reallocation epoch.
const TIMER_REALLOC: u64 = 2;

/// Dynamic memory-reallocation policy (§4.3: "updates the memory
/// allocation based on Algorithm 3 when the workload changes").
#[derive(Clone, Debug)]
pub struct AutoRealloc {
    /// Measurement epoch between reallocations.
    pub epoch: SimDuration,
    /// Switch memory budget given to the allocator (queue slots).
    pub switch_slots: u32,
    /// Maximum queue regions (the FCFS layout's region-table size).
    pub max_regions: usize,
    /// Contention estimate `c_i` assumed for a lock measured only at
    /// the servers (the switch sees its rate, not its queue depth).
    pub server_contention: u32,
}

/// Ingress-to-egress traversal latency (the paper: well under 1 µs).
pub const TRAVERSAL: SimDuration = SimDuration::from_nanos(500);
/// Added latency per extra pipeline pass (resubmit).
pub const PASS_LATENCY: SimDuration = SimDuration::from_nanos(100);

/// Egress delay of a packet that took `extra_passes` resubmits.
pub(crate) fn egress_delay(extra_passes: u64) -> SimDuration {
    TRAVERSAL + SimDuration(PASS_LATENCY.as_nanos() * extra_passes)
}

/// Switch node configuration.
#[derive(Clone, Debug)]
pub struct SwitchConfig {
    /// Lease duration; expired holders are force-released by the control
    /// plane (§4.5). Zero disables lease sweeping.
    pub lease: SimDuration,
    /// Control-plane polling interval.
    pub control_tick: SimDuration,
    /// Periodic measure-and-reallocate loop (None = static allocation,
    /// as the figure harnesses use).
    pub auto_realloc: Option<AutoRealloc>,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        SwitchConfig {
            lease: SimDuration::from_millis(10),
            control_tick: SimDuration::from_millis(1),
            auto_realloc: None,
        }
    }
}

/// Node-level counters (message plane; the data plane keeps its own).
#[derive(Clone, Copy, Debug, Default)]
pub struct SwitchNodeStats {
    /// Grant notifications sent to clients.
    pub grants_sent: u64,
    /// Grants forwarded to database servers (one-RTT mode).
    pub grants_to_db: u64,
    /// Packets dropped by policy or unknown-lock.
    pub drops: u64,
    /// Force-releases issued by the lease sweeper.
    pub lease_expirations: u64,
    /// Migration operations completed.
    pub migrations_done: u64,
    /// Releases dropped by the grant/release conservation guard: the
    /// `(lock, txn)` had no outstanding grant (already released, already
    /// force-released by the lease sweeper, or a network duplicate), so
    /// processing it would blindly dequeue some other holder's entry.
    pub stale_releases_filtered: u64,
}

/// The ToR lock switch.
pub struct SwitchNode {
    dp: DataPlane,
    cfg: SwitchConfig,
    /// Lock server node ids, indexed by the directory's server index.
    servers: Vec<NodeId>,
    /// Database servers grants are forwarded through (§4.1 one-RTT
    /// mode); empty sends grants straight to clients.
    db_servers: Vec<NodeId>,
    /// This switch is acting as the backup for a restarted original:
    /// whenever one of its lock queues drains, it hands the lock back
    /// (CtrlHandback) to the given node (§4.5).
    backup_handback_to: Option<NodeId>,
    /// The allocation [`SwitchNode::program`] loaded; the control plane
    /// reloads it after a reboot.
    programmed: Option<Allocation>,
    /// Locks draining toward demotion.
    pending_demotes: HashSet<LockId>,
    /// Promotions waiting for demotions to free their regions.
    pending_promotes: Vec<MigrationOp>,
    /// Regions reserved for in-flight promotions; the directory flips
    /// only when the server's CtrlPromoteReady arrives (§4.3: the
    /// queue must drain before the move).
    promote_reservations: HashMap<LockId, (usize, u32, u32, usize)>,
    /// Reusable per-packet action buffer: allocated once here, filled
    /// by `DataPlane::process`, drained by `emit`. Zero steady-state
    /// heap traffic on the packet path.
    actions: ActionBuf,
    /// Batch-path scratch, reused across batches: the grants a batch
    /// produced, and the ones of them bound for one client.
    batch_grants: Vec<GrantMsg>,
    batch_group: Vec<GrantMsg>,
    stats: SwitchNodeStats,
}

impl SwitchNode {
    /// Build a switch around a programmed data plane.
    pub fn new(mut dp: DataPlane, cfg: SwitchConfig, servers: Vec<NodeId>) -> SwitchNode {
        // Forward rates feed `realloc_tick` and nothing else.
        dp.set_forward_counting(cfg.auto_realloc.is_some());
        // Release guard: a release of a switch-resident lock is admitted
        // only if an outstanding grant authorizes it. Server-resident
        // releases are forwarded (the server's lock table matches
        // holders by txn and is naturally idempotent).
        dp.set_release_guard(true);
        SwitchNode {
            dp,
            cfg,
            servers,
            db_servers: Vec::new(),
            backup_handback_to: None,
            programmed: None,
            pending_demotes: HashSet::new(),
            pending_promotes: Vec::new(),
            promote_reservations: HashMap::new(),
            actions: ActionBuf::new(),
            batch_grants: Vec::new(),
            batch_group: Vec::new(),
            stats: SwitchNodeStats::default(),
        }
    }

    /// Disable the release guard (chaos-suite sabotage hook; proves the
    /// safety oracle detects the resulting double-dequeues).
    #[doc(hidden)]
    pub fn sabotage_disable_release_guard(&mut self) {
        self.dp.set_release_guard(false);
    }

    /// Enable one-RTT mode (§4.1): every grant is forwarded to the
    /// database server that owns the item, so the client gets data and
    /// grant in one message. An empty list leaves it off.
    pub fn with_db_servers(mut self, db_servers: Vec<NodeId>) -> SwitchNode {
        self.db_servers = db_servers;
        self
    }

    /// Put this switch into backup-handback mode: queue drains are
    /// reported to `original` so it can resume granting (§4.5). The
    /// restarted original must have had
    /// [`DataPlane::begin_handback_suppression`] applied to the locks
    /// the backup still owns.
    pub fn set_backup_handback(&mut self, original: Option<NodeId>) {
        self.backup_handback_to = original;
    }

    /// Data-plane handle (control plane / harness).
    pub fn dataplane(&self) -> &DataPlane {
        &self.dp
    }

    /// Mutable data-plane handle (control plane / harness).
    pub fn dataplane_mut(&mut self) -> &mut DataPlane {
        &mut self.dp
    }

    /// Node counters.
    pub fn stats(&self) -> SwitchNodeStats {
        self.stats
    }

    /// The configuration this switch runs with.
    pub fn config(&self) -> &SwitchConfig {
        &self.cfg
    }

    /// Load `alloc` into the data plane — queue regions and directory,
    /// with unlisted locks default-routed over this switch's lock
    /// servers — and keep it: a revived switch reboots and reloads it,
    /// as the control plane would.
    pub fn program(&mut self, alloc: &Allocation) {
        self.programmed = Some(alloc.clone());
        self.load_program();
    }

    fn load_program(&mut self) {
        if let Some(alloc) = &self.programmed {
            self.dp.set_default_servers(self.servers.len());
            apply_allocation(&mut self.dp, alloc);
        }
    }

    /// A lock server restarted and lost its q2 buffers: reset the
    /// overflow ledgers of its locks and echo `epoch` back. A
    /// buffer-only forward takes one pass, so it leaves after one
    /// `TRAVERSAL`, as the echo does: the FIFO in-rack link delivers
    /// every forward sent before the reset ahead of the echo, and the
    /// server can tell those apart from the ones sent after it.
    fn on_server_restart(&mut self, server: NodeId, epoch: u32, ctx: &mut Context<'_, NetLockMsg>) {
        let Some(idx) = self.servers.iter().position(|&s| s == server) else {
            return;
        };
        self.dp.cp_reset_overflow_for_server(idx);
        ctx.send_after(server, NetLockMsg::CtrlServerRestart { epoch }, TRAVERSAL);
    }

    /// Start executing a migration plan (control-plane operation).
    pub fn start_migration(&mut self, ops: Vec<MigrationOp>, ctx: &mut Context<'_, NetLockMsg>) {
        for op in ops {
            match op {
                MigrationOp::Demote { lock } => {
                    // Track before attempting completion: an instantly
                    // drained queue completes inside the call, and the
                    // bookkeeping must see the removal.
                    self.pending_demotes.insert(lock);
                    if self.dp.begin_demote(lock) {
                        self.try_complete_demote(lock, ctx);
                    }
                }
                promote @ MigrationOp::Promote { .. } => {
                    self.pending_promotes.push(promote);
                }
            }
        }
        self.flush_promotes(ctx);
    }

    fn try_complete_demote(&mut self, lock: LockId, ctx: &mut Context<'_, NetLockMsg>) {
        if let Some(server_idx) = self.dp.complete_demote(lock) {
            self.pending_demotes.remove(&lock);
            self.stats.migrations_done += 1;
            let dst = self.servers[server_idx];
            ctx.send_after(dst, NetLockMsg::CtrlDemote { lock }, TRAVERSAL);
            self.flush_promotes(ctx);
        }
    }

    fn flush_promotes(&mut self, ctx: &mut Context<'_, NetLockMsg>) {
        if !self.pending_demotes.is_empty() || self.pending_promotes.is_empty() {
            return;
        }
        for op in std::mem::take(&mut self.pending_promotes) {
            let MigrationOp::Promote {
                lock,
                qid,
                left,
                right,
                home_server,
            } = op
            else {
                continue;
            };
            // Reserve the region; the directory flips only when the
            // server confirms its queue drained (CtrlPromoteReady).
            self.promote_reservations
                .insert(lock, (qid, left, right, home_server));
            let dst = self.servers[home_server];
            ctx.send_after(dst, NetLockMsg::CtrlPromote { lock }, TRAVERSAL);
        }
    }

    /// Drain `self.actions` (filled by the preceding `process` call)
    /// into the network. Actions are `Copy`, so reading them out by
    /// index keeps the buffer borrow disjoint from the sends below.
    ///
    /// `batched` is set while unpacking a batch: the per-element
    /// `SendGrant` actions are collected in `batch_grants` instead of
    /// sent, so the whole burst's grants can be coalesced into one
    /// [`NetLockMsg::GrantBatch`] per destination client (one simulator
    /// event instead of one per virtual request). One-RTT grants still
    /// go through the database server individually — the fetch is
    /// per-item. Non-grant actions are sent exactly as on the
    /// individual path.
    fn emit(&mut self, extra_passes: u64, ctx: &mut Context<'_, NetLockMsg>, batched: bool) {
        let delay = egress_delay(extra_passes);
        let coalesce = batched && self.db_servers.is_empty();
        for i in 0..self.actions.len() {
            let act = self.actions[i];
            match act {
                DpAction::SendGrant(grant) if coalesce => self.batch_grants.push(grant),
                DpAction::SendGrant(grant) => self.send_grant(grant, delay, ctx),
                DpAction::ForwardAcquire {
                    server,
                    req,
                    buffer_only,
                } => {
                    let Some(&dst) = self.servers.get(server) else {
                        // Rack has no lock server (switch-only deploy):
                        // the request is lost; the client's retry covers
                        // it, like any other drop.
                        self.stats.drops += 1;
                        continue;
                    };
                    ctx.send_after(dst, NetLockMsg::Forwarded { req, buffer_only }, delay);
                }
                DpAction::ForwardRelease { server, rel } => {
                    let Some(&dst) = self.servers.get(server) else {
                        self.stats.drops += 1;
                        continue;
                    };
                    ctx.send_after(dst, NetLockMsg::Release(rel), delay);
                }
                DpAction::SendQueueSpace {
                    server,
                    lock,
                    space,
                } => {
                    let Some(&dst) = self.servers.get(server) else {
                        self.stats.drops += 1;
                        continue;
                    };
                    ctx.send_after(dst, NetLockMsg::QueueSpace { lock, space }, delay);
                }
                DpAction::Drop { .. } => {
                    self.stats.drops += 1;
                }
            }
        }
    }

    fn send_grant(
        &mut self,
        grant: GrantMsg,
        delay: SimDuration,
        ctx: &mut Context<'_, NetLockMsg>,
    ) {
        if !self.db_servers.is_empty() {
            // One-RTT transactions: forward the granted request to the
            // database server that owns the item; the client gets data
            // and grant in a single message (§4.1).
            let db = self.db_servers[grant.lock.0 as usize % self.db_servers.len()];
            self.stats.grants_to_db += 1;
            ctx.send_after(db, NetLockMsg::DbFetch { grant }, delay);
        } else {
            self.stats.grants_sent += 1;
            // Convention: ClientAddr(n) is node n (assigned by the rack
            // builder).
            ctx.send_after(NodeId(grant.client.0), NetLockMsg::Grant(grant), delay);
        }
    }

    /// One client release (alone or out of a batch) through the guarded
    /// data plane. A release the guard filters is counted and goes no
    /// further; returns the extra passes an admitted one cost.
    fn release(
        &mut self,
        rel: ReleaseRequest,
        ctx: &mut Context<'_, NetLockMsg>,
        batched: bool,
    ) -> Option<u64> {
        let before = self.dp.passes();
        if !self
            .dp
            .process_release(rel, ctx.now().as_nanos(), &mut self.actions)
        {
            self.stats.stale_releases_filtered += 1;
            return None;
        }
        Some(self.after_release(rel.lock, before, ctx, batched))
    }

    /// Emit what a processed release (client or lease sweep) left in
    /// `self.actions`; returns its extra passes.
    fn after_release(
        &mut self,
        lock: LockId,
        passes_before: u64,
        ctx: &mut Context<'_, NetLockMsg>,
        batched: bool,
    ) -> u64 {
        let extra = (self.dp.passes() - passes_before).saturating_sub(1);
        self.emit(extra, ctx, batched);
        // The release may have completed a drain for a demoting lock.
        if self.pending_demotes.contains(&lock) {
            self.try_complete_demote(lock, ctx);
        }
        // Backup-handback mode: report a drained queue to the restarted
        // original switch.
        if let Some(original) = self.backup_handback_to {
            if self.dp.is_drained(lock) {
                ctx.send_after(original, NetLockMsg::CtrlHandback { lock }, TRAVERSAL);
            }
        }
        extra
    }

    /// Unpack an [`NetLockMsg::AcquireBatch`]: admit every element
    /// through the data plane in slice order (identical per-request
    /// semantics to individual acquires arriving back-to-back at one
    /// timestamp), collecting grants for coalesced fan-back.
    fn process_acquire_batch(
        &mut self,
        reqs: &[netlock_proto::LockRequest],
        ctx: &mut Context<'_, NetLockMsg>,
    ) {
        let now = ctx.now().as_nanos();
        let mut max_extra = 0u64;
        for req in reqs.iter() {
            let before = self.dp.passes();
            self.dp.process_acquire(*req, now, &mut self.actions);
            let extra = (self.dp.passes() - before).saturating_sub(1);
            max_extra = max_extra.max(extra);
            self.emit(extra, ctx, true);
        }
        self.flush_grant_batches(max_extra, ctx);
    }

    /// Unpack an [`NetLockMsg::ReleaseBatch`]: every element is an
    /// individual release (guard included); grants popped for waiting
    /// requests are coalesced per destination client.
    fn process_release_batch(
        &mut self,
        rels: &[ReleaseRequest],
        ctx: &mut Context<'_, NetLockMsg>,
    ) {
        let mut max_extra = 0u64;
        for rel in rels.iter() {
            if let Some(extra) = self.release(*rel, ctx, true) {
                max_extra = max_extra.max(extra);
            }
        }
        self.flush_grant_batches(max_extra, ctx);
    }

    /// Send the grants a batch left in `batch_grants`, one event per
    /// destination client: a lone grant goes out as a plain
    /// [`NetLockMsg::Grant`] (individual clients queued behind an
    /// aggregate burst keep their wire format), two or more to the same
    /// client fold into one [`NetLockMsg::GrantBatch`]. All grants of
    /// the burst leave the egress together, so the whole flush is
    /// charged the batch's worst-case resubmit count.
    fn flush_grant_batches(&mut self, max_extra: u64, ctx: &mut Context<'_, NetLockMsg>) {
        let delay = egress_delay(max_extra);
        self.stats.grants_sent += self.batch_grants.len() as u64;
        // Peel off one destination at a time, in order of first
        // appearance, preserving grant order within each client.
        while let Some(first) = self.batch_grants.first() {
            let client = first.client.0;
            self.batch_group.clear();
            if self.batch_grants.iter().all(|g| g.client.0 == client) {
                // One destination left — for an aggregate's burst, the
                // only one: what remains is the group, uncopied.
                std::mem::swap(&mut self.batch_grants, &mut self.batch_group);
            } else {
                let group = &mut self.batch_group;
                self.batch_grants.retain(|g| {
                    let mine = g.client.0 == client;
                    if mine {
                        group.push(*g);
                    }
                    !mine
                });
            }
            let msg = match self.batch_group[..] {
                [grant] => NetLockMsg::Grant(grant),
                _ => NetLockMsg::GrantBatch(self.batch_group.as_slice().into()),
            };
            ctx.send_after(NodeId(client), msg, delay);
        }
    }

    /// One reallocation epoch: measure `(r_i, c_i)` from the data-plane
    /// counters (switch-resident locks) and the forward counters
    /// (server-resident locks), run Algorithm 3, and execute the
    /// resulting migration plan.
    fn realloc_tick(&mut self, ctx: &mut Context<'_, NetLockMsg>) {
        let Some(auto) = self.cfg.auto_realloc.clone() else {
            return;
        };
        // Don't start a new plan while the previous one is in flight
        // (including promotions whose server handshake hasn't finished).
        if self.pending_demotes.is_empty()
            && self.pending_promotes.is_empty()
            && self.promote_reservations.is_empty()
        {
            let epoch_secs = auto.epoch.as_secs_f64();
            let mut stats = control::harvest_stats(&mut self.dp, epoch_secs);
            // Stabilize c_i: round the high-water mark up to the next
            // power of two and floor it at the server estimate, so small
            // fluctuations between epochs don't resize regions (every
            // resize requires a drain-and-move).
            for s in &mut stats {
                s.contention = s.contention.next_power_of_two().max(auto.server_contention);
            }
            for (lock, count) in self.dp.cp_take_forward_counts() {
                let rate = count as f64 / epoch_secs.max(1e-9);
                // A lock promoted mid-epoch shows up both in the switch
                // harvest and the forward counts: merge, don't duplicate.
                if let Some(existing) = stats.iter_mut().find(|s| s.lock == lock) {
                    existing.rate += rate;
                    continue;
                }
                let home = self
                    .dp
                    .directory()
                    .get(lock)
                    .map(|e| e.home_server)
                    .or_else(|| self.dp.default_server_of(lock))
                    .unwrap_or(0);
                stats.push(control::LockStats {
                    lock,
                    rate,
                    contention: auto.server_contention,
                    home_server: home,
                });
            }
            let target =
                control::knapsack_allocate_bounded(&stats, auto.switch_slots, auto.max_regions);
            // Reorganize only when membership or region sizes actually
            // change; identical sets in a different order are not worth
            // a drain-and-move of every queue.
            if !self.allocation_matches(&target) {
                let ops = control::plan_migration(&self.dp, &target);
                if !ops.is_empty() {
                    self.start_migration(ops, ctx);
                }
            }
        }
        ctx.set_timer(auto.epoch, TIMER_REALLOC);
    }

    /// Whether the current residency equals `target` as a lock→slots
    /// map (ignoring region positions).
    fn allocation_matches(&self, target: &control::Allocation) -> bool {
        let current = self.dp.directory().switch_resident();
        if current.len() != target.in_switch.len() {
            return false;
        }
        let crate::dataplane::Engine::Fcfs(q) = self.dp.engine() else {
            return false;
        };
        let mut cur: Vec<(LockId, u32)> = current
            .iter()
            .map(|&(lock, qid, _)| (lock, q.cp_region(qid).capacity()))
            .collect();
        let mut tgt: Vec<(LockId, u32)> = target
            .in_switch
            .iter()
            .map(|&(lock, slots, _)| (lock, slots))
            .collect();
        cur.sort_unstable();
        tgt.sort_unstable();
        cur == tgt
    }

    fn control_tick(&mut self, ctx: &mut Context<'_, NetLockMsg>) {
        // Lease sweep: force-release expired holders.
        if !self.cfg.lease.is_zero() {
            let expired =
                control::expired_leases(&self.dp, ctx.now().as_nanos(), self.cfg.lease.as_nanos());
            for rel in expired {
                self.stats.lease_expirations += 1;
                let before = self.dp.passes();
                self.dp
                    .force_release(rel, ctx.now().as_nanos(), &mut self.actions);
                self.after_release(rel.lock, before, ctx, false);
            }
        }
        // Drain checks for pending demotions.
        let pending: Vec<LockId> = self.pending_demotes.iter().copied().collect();
        for lock in pending {
            self.try_complete_demote(lock, ctx);
        }
        ctx.set_timer(self.cfg.control_tick, TIMER_CONTROL_TICK);
    }
}

impl Node<NetLockMsg> for SwitchNode {
    fn on_start(&mut self, ctx: &mut Context<'_, NetLockMsg>) {
        if !self.cfg.control_tick.is_zero() {
            ctx.set_timer(self.cfg.control_tick, TIMER_CONTROL_TICK);
        }
        if let Some(auto) = &self.cfg.auto_realloc {
            ctx.set_timer(auto.epoch, TIMER_REALLOC);
        }
    }

    /// "The switch retains none of its former state or register values"
    /// (§6.5): wipe every data-plane register and table and forget
    /// migrations, reload the programmed allocation, and restart the
    /// timer chains, which died with the node.
    fn on_revive(&mut self, ctx: &mut Context<'_, NetLockMsg>) {
        self.dp.reset();
        self.pending_demotes.clear();
        self.pending_promotes.clear();
        self.promote_reservations.clear();
        self.load_program();
        self.on_start(ctx);
    }

    fn on_packet(&mut self, pkt: Packet<NetLockMsg>, ctx: &mut Context<'_, NetLockMsg>) {
        // Aggregate-population bursts take the batched path: unpack,
        // admit per element, coalesce grant fan-back.
        let pkt = match pkt.payload {
            NetLockMsg::AcquireBatch(reqs) => {
                self.process_acquire_batch(&reqs, ctx);
                return;
            }
            NetLockMsg::ReleaseBatch(rels) => {
                self.process_release_batch(&rels, ctx);
                return;
            }
            payload => Packet { payload, ..pkt },
        };
        match pkt.payload {
            NetLockMsg::Release(rel) => {
                self.release(rel, ctx, false);
                return;
            }
            NetLockMsg::CtrlServerRestart { epoch } => {
                self.on_server_restart(pkt.src, epoch, ctx);
                return;
            }
            _ => {}
        }
        // Complete a reserved promotion: install the region + directory
        // entry just before the buffered requests are enqueued.
        if let NetLockMsg::CtrlPromoteReady { lock, .. } = &pkt.payload {
            if let Some((qid, left, right, home)) = self.promote_reservations.remove(lock) {
                self.dp.prepare_promote(*lock, qid, left, right, home);
                self.stats.migrations_done += 1;
            }
        }
        let before = self.dp.passes();
        self.dp
            .process(pkt.payload, ctx.now().as_nanos(), &mut self.actions);
        let extra = (self.dp.passes() - before).saturating_sub(1);
        self.emit(extra, ctx, false);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, NetLockMsg>) {
        if token == TIMER_CONTROL_TICK {
            self.control_tick(ctx);
        } else if token == TIMER_REALLOC {
            self.realloc_tick(ctx);
        }
    }

    fn name(&self) -> &str {
        "lock-switch"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::{apply_allocation, knapsack_allocate, LockStats};
    use crate::shared_queue::SharedQueueLayout;
    use netlock_proto::{ClientAddr, LockMode, LockRequest, Priority, TenantId, TxnId};
    use netlock_sim::{Packet as SimPacket, SimTime, Simulator};

    struct Sink(Vec<NetLockMsg>);
    impl Node<NetLockMsg> for Sink {
        fn on_packet(&mut self, pkt: SimPacket<NetLockMsg>, _ctx: &mut Context<'_, NetLockMsg>) {
            self.0.push(pkt.payload);
        }
        fn on_timer(&mut self, _t: u64, _c: &mut Context<'_, NetLockMsg>) {}
    }

    fn acquire(lock: u32, txn: u64, client: u32, at: u64) -> NetLockMsg {
        NetLockMsg::Acquire(LockRequest {
            lock: netlock_proto::LockId(lock),
            mode: LockMode::Exclusive,
            txn: TxnId(txn),
            client: ClientAddr(client),
            tenant: TenantId(0),
            priority: Priority(0),
            issued_at_ns: at,
        })
    }

    fn dp(locks: u32) -> DataPlane {
        let mut dp = DataPlane::new_fcfs(&SharedQueueLayout::small(2, 64, 16));
        let stats = LockStats::uniform((0..locks).map(LockId), 8, 1);
        apply_allocation(&mut dp, &knapsack_allocate(&stats, 128));
        dp
    }

    #[test]
    fn grant_routed_to_client_node() {
        let mut sim: Simulator<NetLockMsg> = Simulator::with_seed(1);
        let client = sim.add_node(Box::new(Sink(Vec::new())));
        let switch = sim.add_node(Box::new(SwitchNode::new(
            dp(4),
            SwitchConfig::default(),
            vec![],
        )));
        sim.inject(client, switch, acquire(1, 5, client.0, 0));
        sim.run_until(SimTime(1_000_000));
        sim.read_node::<Sink, _>(client, |s| {
            assert_eq!(s.0.len(), 1);
            assert!(matches!(s.0[0], NetLockMsg::Grant(g) if g.txn == TxnId(5)));
        });
    }

    #[test]
    fn one_rtt_routes_grant_through_db_server() {
        let mut sim: Simulator<NetLockMsg> = Simulator::with_seed(2);
        let client = sim.add_node(Box::new(Sink(Vec::new())));
        let db = sim.add_node(Box::new(Sink(Vec::new())));
        let switch = sim.add_node(Box::new(
            SwitchNode::new(dp(4), SwitchConfig::default(), vec![]).with_db_servers(vec![db]),
        ));
        sim.inject(client, switch, acquire(1, 5, client.0, 0));
        sim.run_until(SimTime(1_000_000));
        sim.read_node::<Sink, _>(client, |s| assert!(s.0.is_empty()));
        sim.read_node::<Sink, _>(db, |s| {
            assert_eq!(s.0.len(), 1);
            assert!(matches!(s.0[0], NetLockMsg::DbFetch { .. }));
        });
        sim.read_node::<SwitchNode, _>(switch, |s| {
            assert_eq!(s.stats().grants_to_db, 1);
            assert_eq!(s.stats().grants_sent, 0);
        });
    }

    #[test]
    fn lease_sweeper_frees_stuck_holder() {
        let mut sim: Simulator<NetLockMsg> = Simulator::with_seed(3);
        let client = sim.add_node(Box::new(Sink(Vec::new())));
        let switch = sim.add_node(Box::new(SwitchNode::new(
            dp(4),
            SwitchConfig {
                lease: SimDuration::from_millis(2),
                control_tick: SimDuration::from_millis(1),
                ..Default::default()
            },
            vec![],
        )));
        // Holder that never releases; a waiter behind it.
        sim.inject(client, switch, acquire(1, 1, client.0, 0));
        sim.inject(client, switch, acquire(1, 2, client.0, 0));
        sim.run_until(SimTime(SimDuration::from_millis(10).as_nanos()));
        sim.read_node::<Sink, _>(client, |s| {
            // Grant for 1, then (after the lease fires) grant for 2.
            assert!(
                s.0.len() >= 2,
                "sweeper must grant the waiter: {:?}",
                s.0.len()
            );
        });
        sim.read_node::<SwitchNode, _>(switch, |s| {
            assert!(s.stats().lease_expirations >= 1);
        });
    }

    /// Two shared holders, released out of order: the blind dequeue
    /// takes the older slot and the younger holder's grant, so the slot
    /// left behind names a transaction whose grant is already spent.
    /// When its lease runs out the sweeper must still free it (nobody
    /// else will — the chaos suite wedges if it does not), and a guard
    /// that finds nothing to spend must not upset the pass arithmetic.
    #[test]
    fn sweep_frees_a_holder_whose_grant_is_already_spent() {
        let mut sim: Simulator<NetLockMsg> = Simulator::with_seed(5);
        let client = sim.add_node(Box::new(Sink(Vec::new())));
        let switch = sim.add_node(Box::new(SwitchNode::new(
            dp(4),
            SwitchConfig {
                lease: SimDuration::from_millis(2),
                control_tick: SimDuration::from_millis(3),
                ..Default::default()
            },
            vec![],
        )));
        let request = |txn: u64, mode: LockMode| {
            let NetLockMsg::Acquire(req) = acquire(1, txn, client.0, 0) else {
                unreachable!()
            };
            LockRequest { mode, ..req }
        };
        for txn in [1, 2] {
            let req = request(txn, LockMode::Shared);
            sim.inject(client, switch, NetLockMsg::Acquire(req));
        }
        let waiter = request(3, LockMode::Exclusive);
        sim.inject(client, switch, NetLockMsg::Acquire(waiter));
        sim.inject(
            client,
            switch,
            NetLockMsg::Release(netlock_proto::ReleaseRequest {
                lock: waiter.lock,
                txn: TxnId(2),
                mode: LockMode::Shared,
                client: waiter.client,
                priority: waiter.priority,
            }),
        );
        // One control tick at 3 ms: the slot of txn 2 is past its lease.
        sim.run_until(SimTime(SimDuration::from_millis(4).as_nanos()));
        sim.read_node::<SwitchNode, _>(switch, |s| {
            assert_eq!(s.stats().lease_expirations, 1);
            assert_eq!(s.stats().stale_releases_filtered, 0);
            assert_eq!(s.stats().grants_sent, 3, "the waiter got the lock");
        });
        // Txn 2 released once already: a second release is stale.
        sim.inject(
            client,
            switch,
            NetLockMsg::Release(netlock_proto::ReleaseRequest {
                lock: waiter.lock,
                txn: TxnId(2),
                mode: LockMode::Shared,
                client: waiter.client,
                priority: waiter.priority,
            }),
        );
        sim.run_until(SimTime(SimDuration::from_millis(5).as_nanos()));
        sim.read_node::<SwitchNode, _>(switch, |s| {
            assert_eq!(s.stats().stale_releases_filtered, 1);
        });
    }

    /// A batch's grants fan back one event per destination, destinations
    /// in order of first appearance, each client's grants in grant
    /// order; a lone grant keeps the individual wire format.
    #[test]
    fn batch_grants_group_per_destination_in_order() {
        let mut sim: Simulator<NetLockMsg> = Simulator::with_seed(6);
        let clients: Vec<NodeId> = (0..3)
            .map(|_| sim.add_node(Box::new(Sink(Vec::new()))))
            .collect();
        let switch = sim.add_node(Box::new(SwitchNode::new(
            dp(4),
            SwitchConfig::default(),
            vec![],
        )));
        // Shared acquires of one lock, all granted at once: clients
        // 0, 1, 0, 2, 1 → [t0, t2] to 0, [t1, t4] to 1, t3 alone to 2.
        let reqs: Box<[LockRequest]> = [0usize, 1, 0, 2, 1]
            .iter()
            .enumerate()
            .map(|(txn, &c)| {
                let NetLockMsg::Acquire(req) = acquire(1, txn as u64, clients[c].0, 0) else {
                    unreachable!()
                };
                LockRequest {
                    mode: LockMode::Shared,
                    ..req
                }
            })
            .collect();
        sim.inject(clients[0], switch, NetLockMsg::AcquireBatch(reqs));
        sim.run_until(SimTime(1_000_000));
        let txns_at = |sim: &mut Simulator<NetLockMsg>, c: usize| {
            sim.read_node::<Sink, _>(clients[c], |s| {
                assert_eq!(s.0.len(), 1, "one event per destination");
                match &s.0[0] {
                    NetLockMsg::Grant(g) => (false, vec![g.txn.0]),
                    NetLockMsg::GrantBatch(gs) => (true, gs.iter().map(|g| g.txn.0).collect()),
                    other => panic!("unexpected {other:?}"),
                }
            })
        };
        assert_eq!(txns_at(&mut sim, 0), (true, vec![0, 2]));
        assert_eq!(txns_at(&mut sim, 1), (true, vec![1, 4]));
        assert_eq!(txns_at(&mut sim, 2), (false, vec![3]));
        sim.read_node::<SwitchNode, _>(switch, |s| assert_eq!(s.stats().grants_sent, 5));
    }

    #[test]
    fn reboot_forgets_everything() {
        let mut sim: Simulator<NetLockMsg> = Simulator::with_seed(4);
        let client = sim.add_node(Box::new(Sink(Vec::new())));
        let switch = sim.add_node(Box::new(SwitchNode::new(
            dp(4),
            SwitchConfig::default(),
            vec![],
        )));
        sim.inject(client, switch, acquire(1, 1, client.0, 0));
        sim.run_until(SimTime(100_000));
        sim.fail_node(switch);
        sim.revive_node(switch);
        sim.inject(client, switch, acquire(1, 2, client.0, 0));
        sim.run_until(SimTime(1_000_000));
        // Nothing was loaded through `program`, so the rebooted switch
        // has an empty directory and no servers: the request is
        // dropped, not granted.
        sim.read_node::<Sink, _>(client, |s| {
            assert_eq!(s.0.len(), 1, "only the pre-reboot grant");
        });
        sim.read_node::<SwitchNode, _>(switch, |s| {
            assert!(s.dataplane().directory().is_empty());
        });
    }
}
