//! The NetLock switch data-plane module.
//!
//! Combines the lock directory (match-action table), the FCFS or
//! priority lock engine, per-tenant meters and the q1/q2 overflow
//! protocol into the packet-processing function the ToR switch runs for
//! NetLock traffic (Algorithm 1 of the paper). Non-NetLock packets never
//! reach this module.
//!
//! The module is a pure state machine: `process` consumes a message and
//! writes the actions the switch must take (grants to mirror out,
//! forwards to lock servers, push-protocol notifications) into a
//! caller-owned [`ActionBuf`]. The sim node in [`crate::node`] turns
//! actions into packets; tests drive the state machine directly.
//!
//! Hot-path memory discipline: `process` performs no steady-state heap
//! allocation. Actions land in the reusable `ActionBuf`, release-grant
//! cascades collect into a reusable scratch buffer and tenant meters
//! live in a dense array indexed by `TenantId` — mirroring the ASIC,
//! whose tables and counters are all fixed at compile time.

use netlock_proto::{
    GrantMsg, Grantor, LockId, LockMode, LockRequest, NetLockMsg, ReleaseRequest, TenantId, TxnId,
};

use crate::action_buf::ActionBuf;
use crate::analysis::layout::ProgramLayout;
use crate::analysis::trace::TraceSink;
use crate::directory::{DirEntry, LockDirectory, Residence};
use crate::meter::TokenBucket;
use crate::priority::{PriorityEngine, PriorityLayout};
use crate::register::PassAllocator;
use crate::release_guard::GrantLedger;
use crate::shared_queue::{AcquireOutcome, SharedQueue, SharedQueueLayout};
use crate::slot::Slot;

/// Which lock engine the data plane is compiled with.
// One `Engine` exists per data plane, built once and referenced in
// place; the size gap between variants never costs a hot-path move.
#[allow(clippy::large_enum_variant)]
pub enum Engine {
    /// Single FIFO queue per lock: starvation-freedom / FCFS (§4.4).
    Fcfs(SharedQueue),
    /// Per-stage priority queues: service differentiation (§4.4).
    Priority(PriorityEngine),
}

/// Per-lock overflow-protocol state (§4.3).
///
/// `forwarded`/`pushed` count requests sent to q2 and returned from q2;
/// overflow mode ends only when they match and the server reports q2
/// empty, which guarantees no request is in flight and single-queue FCFS
/// order is preserved.
#[derive(Clone, Copy, Debug, Default)]
struct OverflowState {
    active: bool,
    /// Requests forwarded to the server's q2 while in overflow mode.
    forwarded: u64,
    /// Requests returned from q2 via the push protocol.
    pushed: u64,
    /// A QueueSpace notification is outstanding.
    space_pending: bool,
}

/// An action the switch must take after processing a message.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DpAction {
    /// Mirror a grant notification to the client.
    SendGrant(GrantMsg),
    /// Forward an acquire to lock server `server`.
    ForwardAcquire {
        /// Destination lock server index.
        server: usize,
        /// The request.
        req: LockRequest,
        /// Overflow mark: buffer in q2, do not process.
        buffer_only: bool,
    },
    /// Forward a release to lock server `server` (server-resident lock).
    ForwardRelease {
        /// Destination lock server index.
        server: usize,
        /// The release.
        rel: ReleaseRequest,
    },
    /// Tell server `server` that q1 of `lock` has `space` free slots.
    SendQueueSpace {
        /// Destination lock server index.
        server: usize,
        /// The lock whose q1 drained.
        lock: LockId,
        /// Free q1 slots.
        space: u32,
    },
    /// Drop the packet (over-quota tenant, unknown lock, malformed).
    Drop {
        /// Why the packet was dropped.
        reason: DropReason,
    },
}

/// Why the data plane dropped a packet.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DropReason {
    /// Tenant exceeded its meter (performance-isolation policy).
    OverQuota,
    /// Lock not present in the directory and no home server known.
    UnknownLock,
    /// Priority-engine region overflow (not supported with the q2
    /// protocol; sized to contention instead — see DESIGN.md).
    PriorityOverflow,
}

/// Running counters exposed by the data plane.
#[derive(Clone, Copy, Debug, Default)]
pub struct DpStats {
    /// Acquires granted directly by the switch.
    pub grants_immediate: u64,
    /// Acquires queued in switch memory.
    pub queued: u64,
    /// Grants issued on release (head handoffs and shared cascades).
    pub grants_on_release: u64,
    /// Acquires forwarded to servers (server-resident locks).
    pub forwarded_server_locks: u64,
    /// Acquires forwarded with the buffer-only overflow mark.
    pub forwarded_overflow: u64,
    /// Releases processed.
    pub releases: u64,
    /// Spurious releases (empty queue).
    pub releases_spurious: u64,
    /// Packets dropped by tenant meters.
    pub quota_drops: u64,
    /// Total pipeline passes (1 per packet + resubmits).
    pub passes: u64,
    /// Push-protocol batches accepted.
    pub pushes: u64,
}

/// The NetLock data plane.
pub struct DataPlane {
    directory: LockDirectory,
    engine: Engine,
    /// Static resource model, registered at construction from whichever
    /// engine the program was "compiled" with.
    layout: ProgramLayout,
    overflow: Vec<OverflowState>,
    /// Per-tenant meters, dense by `TenantId` (`None` = unmetered).
    /// Tenant ids are assigned densely by the rack harness, so the
    /// array stays small; sizing happens at `set_tenant_meter` time,
    /// never per packet.
    meters: Vec<Option<TokenBucket>>,
    passes: PassAllocator,
    stats: DpStats,
    /// Reusable buffer for release grant cascades; cleared per packet,
    /// so the retained capacity makes the engines' out-params
    /// allocation-free in steady state.
    grant_scratch: Vec<Slot>,
    /// Number of lock servers for default routing. Locks without a
    /// directory entry are forwarded to `hash(lock) % default_servers`
    /// — the paper's "set the destination IP to that of the server
    /// responsible for the lock": the match-action table only holds
    /// switch-resident locks, everything else routes onward. Zero means
    /// unknown locks are dropped.
    default_servers: usize,
    /// The release guard ([`DataPlane::set_release_guard`]): outstanding
    /// switch grants per queue region. `None` (the default) is the
    /// paper's unguarded blind dequeue.
    guard: Option<GrantLedger>,
}

impl DataPlane {
    /// A data plane with the FCFS engine over the given queue layout.
    pub fn new_fcfs(layout: &SharedQueueLayout) -> DataPlane {
        let q = SharedQueue::new(layout);
        let regions = q.max_regions();
        let mut program = ProgramLayout::new();
        q.describe(&mut program);
        DataPlane {
            directory: LockDirectory::new(),
            engine: Engine::Fcfs(q),
            layout: program,
            overflow: vec![OverflowState::default(); regions],
            meters: Vec::new(),
            passes: PassAllocator::new(),
            stats: DpStats::default(),
            grant_scratch: Vec::new(),
            default_servers: 0,
            guard: None,
        }
    }

    /// A data plane with the priority engine.
    pub fn new_priority(layout: &PriorityLayout) -> DataPlane {
        let e = PriorityEngine::new(layout);
        let regions = e.max_regions();
        let mut program = ProgramLayout::new();
        e.describe(&mut program);
        DataPlane {
            directory: LockDirectory::new(),
            engine: Engine::Priority(e),
            layout: program,
            overflow: vec![OverflowState::default(); regions],
            meters: Vec::new(),
            passes: PassAllocator::new(),
            stats: DpStats::default(),
            grant_scratch: Vec::new(),
            default_servers: 0,
            guard: None,
        }
    }

    /// Set the number of lock servers used for default routing of locks
    /// with no directory entry (the per-lock home server a client would
    /// have addressed).
    pub fn set_default_servers(&mut self, n: usize) {
        self.default_servers = n;
    }

    /// Turn the release guard on or off. On, every grant the data plane
    /// emits is recorded against its queue region and a release of a
    /// switch-resident lock is processed only if an outstanding grant
    /// authorizes it ([`DataPlane::process_release`]). Off (the
    /// default), releases dequeue blindly, as in the paper. Both switch
    /// nodes turn it on; turning it off forgets the ledger.
    pub fn set_release_guard(&mut self, on: bool) {
        self.guard = on.then(GrantLedger::default);
    }

    /// Whether the guard holds an outstanding switch grant that
    /// authorizes releasing `txn`'s `mode` hold of `lock`. Read-only:
    /// the chain head asks before sequencing a release, the apply
    /// spends the grant.
    pub fn guard_authorizes(&self, lock: LockId, txn: TxnId, mode: LockMode) -> bool {
        match (&self.guard, self.directory.get(lock).map(|e| e.residence)) {
            (Some(g), Some(Residence::Switch { qid })) => g.authorizes(qid, txn, mode),
            _ => false,
        }
    }

    /// Outstanding grants the guard holds for region `qid` (0 with the
    /// guard off). Each holds a queue slot, so this stays within the
    /// region's capacity.
    pub fn guard_outstanding(&self, qid: usize) -> usize {
        self.guard.as_ref().map_or(0, |g| g.outstanding(qid))
    }

    /// Default home server of a lock with no directory entry.
    pub fn default_server_of(&self, lock: LockId) -> Option<usize> {
        if self.default_servers == 0 {
            None
        } else {
            Some(
                ((lock.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize
                    % self.default_servers,
            )
        }
    }

    /// The directory (control-plane handle).
    pub fn directory(&self) -> &LockDirectory {
        &self.directory
    }

    /// Mutable directory access (control-plane handle).
    pub fn directory_mut(&mut self) -> &mut LockDirectory {
        &mut self.directory
    }

    /// The engine (control-plane introspection).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Mutable engine access (control-plane operations).
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Counters.
    pub fn stats(&self) -> DpStats {
        self.stats
    }

    /// [`process`] an acquire without the message-enum round trip —
    /// the batch path calls this once per unpacked element.
    ///
    /// [`process`]: DataPlane::process
    #[inline]
    pub fn process_acquire(&mut self, req: LockRequest, now_ns: u64, out: &mut ActionBuf) {
        out.clear();
        self.on_acquire(req, now_ns, out);
    }

    /// The static resource model registered at construction.
    pub fn layout(&self) -> &ProgramLayout {
        &self.layout
    }

    /// Install (or remove) an access-trace sink: every pipeline pass
    /// the data plane performs afterwards records its register accesses
    /// into it (see [`crate::analysis::trace`]).
    pub fn set_trace_sink(&mut self, sink: Option<TraceSink>) {
        self.passes.set_trace_sink(sink);
    }

    /// Install a per-tenant meter (performance-isolation policy, §4.4).
    pub fn set_tenant_meter(
        &mut self,
        tenant: TenantId,
        rate_per_sec: u64,
        burst: u64,
        now_ns: u64,
    ) {
        let idx = tenant.0 as usize;
        if idx >= self.meters.len() {
            self.meters.resize(idx + 1, None);
        }
        self.meters[idx] = Some(TokenBucket::new(rate_per_sec, burst, now_ns));
    }

    /// Wipe data-plane state (switch reboot, §6.5: "the switch retains
    /// none of its former state or register values").
    pub fn reset(&mut self) {
        match &mut self.engine {
            Engine::Fcfs(q) => q.cp_reset_all(),
            Engine::Priority(e) => e.cp_reset_all(),
        }
        self.directory.clear();
        self.overflow
            .iter_mut()
            .for_each(|o| *o = OverflowState::default());
        self.meters.clear();
        self.stats = DpStats::default();
        // The ledger dies with the registers: releases for pre-reboot
        // grants must not dequeue entries of the rebuilt queues.
        if let Some(g) = &mut self.guard {
            g.clear();
        }
    }

    /// Process one NetLock message; `now_ns` is the switch clock.
    ///
    /// Actions, and the pipeline passes the packet took, are written
    /// into `out` (cleared first). The caller owns the buffer and reuses
    /// it across packets, so the per-packet path performs zero heap
    /// allocation in steady state.
    pub fn process(&mut self, msg: NetLockMsg, now_ns: u64, out: &mut ActionBuf) {
        out.clear();
        match msg {
            NetLockMsg::Acquire(req) => self.on_acquire(req, now_ns, out),
            NetLockMsg::Release(rel) => {
                self.process_release(rel, now_ns, out);
            }
            NetLockMsg::Push { lock, reqs } => self.on_push(lock, reqs, out),
            // Grants / forwards / fetches pass through the switch as
            // ordinary routed traffic; the data plane does not act on
            // them (the sim node routes them by destination).
            _ => {}
        }
    }

    /// [`process`] into a freshly allocated buffer — a convenience for
    /// tests and offline analysis. Hot paths reuse a buffer instead.
    ///
    /// [`process`]: DataPlane::process
    pub fn process_collect(&mut self, msg: NetLockMsg, now_ns: u64) -> ActionBuf {
        let mut out = ActionBuf::new();
        self.process(msg, now_ns, &mut out);
        out
    }

    /// Charge the packet being processed `passes` pipeline passes, in
    /// the running count and in its action buffer.
    #[inline]
    fn charge(&mut self, out: &mut ActionBuf, passes: u32) {
        self.stats.passes += u64::from(passes);
        out.charge_passes(passes);
    }

    /// The one place a switch grant leaves the data plane: record it
    /// with the release guard (if on), then mirror it out (into the
    /// batch's grant list in batch mode, see [`ActionBuf`]). Takes the
    /// fields apart so callers can hold `grant_scratch` borrowed.
    #[inline]
    fn push_grant(
        guard: &mut Option<GrantLedger>,
        out: &mut ActionBuf,
        qid: usize,
        lock: LockId,
        slot: &Slot,
    ) {
        if let Some(g) = guard {
            g.credit(qid, slot.txn, slot.mode);
        }
        out.push_grant(GrantMsg {
            lock,
            txn: slot.txn,
            mode: slot.mode,
            client: slot.client,
            priority: slot.priority,
            grantor: Grantor::Switch,
            issued_at_ns: slot.issued_at_ns,
        });
    }

    fn on_acquire(&mut self, req: LockRequest, now_ns: u64, out: &mut ActionBuf) {
        self.charge(out, 1);
        // Tenant meter at ingress.
        if let Some(Some(meter)) = self.meters.get_mut(req.tenant.0 as usize) {
            if !meter.try_consume(now_ns) {
                self.stats.quota_drops += 1;
                out.push(DpAction::Drop {
                    reason: DropReason::OverQuota,
                });
                return;
            }
        }
        let entry = match self.directory.get(req.lock) {
            Some(e) => e,
            None => match self.default_server_of(req.lock) {
                Some(server) => {
                    self.stats.forwarded_server_locks += 1;
                    out.push(DpAction::ForwardAcquire {
                        server,
                        req,
                        buffer_only: false,
                    });
                    return;
                }
                None => {
                    out.push(DpAction::Drop {
                        reason: DropReason::UnknownLock,
                    });
                    return;
                }
            },
        };
        match entry.residence {
            Residence::Server => {
                self.stats.forwarded_server_locks += 1;
                out.push(DpAction::ForwardAcquire {
                    server: entry.home_server,
                    req,
                    buffer_only: false,
                });
            }
            Residence::Switch { qid } => {
                // Overflow mode: preserve single-queue order by sending
                // every new request to q2 until it fully drains (§4.3).
                if self.overflow[qid].active {
                    self.overflow[qid].forwarded += 1;
                    self.stats.forwarded_overflow += 1;
                    out.push(DpAction::ForwardAcquire {
                        server: entry.home_server,
                        req,
                        buffer_only: true,
                    });
                    return;
                }
                let slot = Slot::from_request(&req);
                let (outcome, extra_passes) = match &mut self.engine {
                    Engine::Fcfs(q) => (q.acquire(&mut self.passes, qid, slot), 0),
                    Engine::Priority(e) => {
                        let (o, p) = e.acquire(&mut self.passes, qid, slot);
                        (o, p.saturating_sub(1))
                    }
                };
                self.charge(out, extra_passes);
                match outcome {
                    AcquireOutcome::Granted => {
                        self.stats.grants_immediate += 1;
                        Self::push_grant(&mut self.guard, out, qid, req.lock, &slot);
                    }
                    AcquireOutcome::Queued => {
                        self.stats.queued += 1;
                    }
                    AcquireOutcome::Overflow => match &self.engine {
                        Engine::Fcfs(_) => {
                            self.overflow[qid].active = true;
                            self.overflow[qid].forwarded += 1;
                            self.stats.forwarded_overflow += 1;
                            out.push(DpAction::ForwardAcquire {
                                server: entry.home_server,
                                req,
                                buffer_only: true,
                            });
                        }
                        Engine::Priority(_) => out.push(DpAction::Drop {
                            reason: DropReason::PriorityOverflow,
                        }),
                    },
                }
            }
        }
    }

    /// [`process`] a release without the message-enum round trip, and
    /// report what the release guard decided. With the guard on
    /// ([`DataPlane::set_release_guard`]) a release of a switch-resident
    /// lock must spend an outstanding grant of its queue region to the
    /// same transaction in the same mode — the guard rides on the
    /// directory lookup the release pays anyway.
    /// Returns `false` — with no counters touched and no actions
    /// emitted — when the guard filters the release; server-resident
    /// and unknown locks are forwarded untouched (the server's lock
    /// table matches holders by txn itself).
    ///
    /// [`process`]: DataPlane::process
    pub fn process_release(
        &mut self,
        rel: ReleaseRequest,
        now_ns: u64,
        out: &mut ActionBuf,
    ) -> bool {
        self.release(rel, now_ns, out, false)
    }

    /// The lease sweeper's release of a holder it read out of the queue
    /// itself ([`crate::control::expired_leases`]): spends the holder's
    /// outstanding grant if it still has one — its own late release is
    /// then filtered instead of dequeuing whoever was granted next — and
    /// dequeues either way, because the slot is there. (Releases out of
    /// grant order leave slots whose own grant a blind dequeue already
    /// spent; refusing to expire those would wedge the lock for good.)
    /// A slot whose own grant is spent costs the region its oldest
    /// outstanding grant instead: the dequeue removes a granted slot,
    /// so it must remove a credit too, and the oldest belongs to the
    /// stalest holder, whose lease is the one that ran out.
    pub fn force_release(&mut self, rel: ReleaseRequest, now_ns: u64, out: &mut ActionBuf) {
        self.release(rel, now_ns, out, true);
    }

    fn release(
        &mut self,
        rel: ReleaseRequest,
        now_ns: u64,
        out: &mut ActionBuf,
        forced: bool,
    ) -> bool {
        out.clear();
        if let Some(entry) = self.directory.get(rel.lock) {
            if let (Some(g), Residence::Switch { qid }) = (&mut self.guard, entry.residence) {
                if !g.consume(qid, rel.txn, rel.mode) {
                    if !forced {
                        return false;
                    }
                    g.consume_oldest(qid);
                }
            }
            self.charge(out, 1);
            self.stats.releases += 1;
            self.on_release_at(rel, entry, now_ns, out);
        } else {
            self.charge(out, 1);
            self.stats.releases += 1;
            match self.default_server_of(rel.lock) {
                Some(server) => out.push(DpAction::ForwardRelease { server, rel }),
                None => out.push(DpAction::Drop {
                    reason: DropReason::UnknownLock,
                }),
            }
        }
        true
    }

    fn on_release_at(
        &mut self,
        rel: ReleaseRequest,
        entry: DirEntry,
        now_ns: u64,
        out: &mut ActionBuf,
    ) {
        match entry.residence {
            Residence::Server => out.push(DpAction::ForwardRelease {
                server: entry.home_server,
                rel,
            }),
            Residence::Switch { qid } => {
                // Grants land in the reusable scratch buffer — the one
                // place Algorithm 2 fans out — then are copied into the
                // caller's `ActionBuf`. No per-packet allocation.
                self.grant_scratch.clear();
                let out_r = match &mut self.engine {
                    Engine::Fcfs(q) => {
                        q.release(&mut self.passes, qid, rel.mode, &mut self.grant_scratch)
                    }
                    Engine::Priority(e) => e.release(
                        &mut self.passes,
                        qid,
                        rel.mode,
                        rel.priority.0,
                        now_ns,
                        &mut self.grant_scratch,
                    ),
                };
                self.charge(out, out_r.passes.saturating_sub(1));
                if out_r.spurious {
                    self.stats.releases_spurious += 1;
                    return;
                }
                self.stats.grants_on_release += self.grant_scratch.len() as u64;
                for s in &self.grant_scratch {
                    Self::push_grant(&mut self.guard, out, qid, rel.lock, s);
                }
                // q1 drained while in overflow mode → ask the server to
                // push from q2.
                if out_r.now_empty {
                    let of = &mut self.overflow[qid];
                    if of.active && !of.space_pending {
                        of.space_pending = true;
                        let space = self.region_capacity(qid);
                        out.push(DpAction::SendQueueSpace {
                            server: entry.home_server,
                            lock: rel.lock,
                            space,
                        });
                    }
                }
            }
        }
    }

    /// Control-plane overflow reset after a lock server restarted with
    /// total state loss. Every q2 that server buffered is gone, so the
    /// forwarded/pushed ledgers of its switch-resident locks can never
    /// reconcile again — without this reset, a lock that was in
    /// overflow mode at the crash keeps forwarding acquires at a wiped
    /// q2 forever. The stranded q2 requests died with the server and
    /// are re-driven by client retries; the next q1 overflow restarts
    /// the protocol from clean counters.
    pub fn cp_reset_overflow_for_server(&mut self, server_idx: usize) {
        for (_, qid, home) in self.directory.switch_resident() {
            if home == server_idx {
                let of = &mut self.overflow[qid];
                of.active = false;
                of.forwarded = 0;
                of.pushed = 0;
                of.space_pending = false;
            }
        }
    }

    /// Server pushes `reqs` from q2 into q1. A push with `reqs.len() <
    /// space` means q2 is (momentarily) empty; overflow mode ends when
    /// the forwarded/pushed counters agree, i.e. nothing is in flight.
    fn on_push(&mut self, lock: LockId, reqs: Box<[LockRequest]>, out: &mut ActionBuf) {
        self.charge(out, 1);
        self.stats.pushes += 1;
        let Some(entry) = self.directory.get(lock) else {
            out.push(DpAction::Drop {
                reason: DropReason::UnknownLock,
            });
            return;
        };
        let Residence::Switch { qid } = entry.residence else {
            // The lock is server-resident here: bounce the requests to
            // the server as owner.
            for req in reqs {
                out.push(DpAction::ForwardAcquire {
                    server: entry.home_server,
                    req,
                    buffer_only: false,
                });
            }
            return;
        };
        let n = reqs.len() as u64;
        for req in reqs {
            let slot = Slot::from_request(&req);
            let outcome = match &mut self.engine {
                Engine::Fcfs(q) => q.acquire(&mut self.passes, qid, slot),
                Engine::Priority(e) => e.acquire(&mut self.passes, qid, slot).0,
            };
            self.charge(out, 1);
            match outcome {
                AcquireOutcome::Granted => {
                    self.stats.grants_immediate += 1;
                    Self::push_grant(&mut self.guard, out, qid, req.lock, &slot);
                }
                AcquireOutcome::Queued => {
                    self.stats.queued += 1;
                }
                AcquireOutcome::Overflow => {
                    // The server never pushes more than the advertised
                    // space, so q1 cannot overflow mid-push.
                    debug_assert!(false, "push overflowed q1");
                }
            }
        }
        // Overflow bookkeeping only applies in overflow mode; a Push can
        // also carry a plain acquire a server bounced back to the switch
        // that owns its lock, which is a plain enqueue.
        if self.overflow[qid].active {
            self.overflow[qid].pushed += n;
            self.overflow[qid].space_pending = false;
            if self.overflow[qid].forwarded == self.overflow[qid].pushed {
                // Everything that ever went to q2 has come back and q2
                // is empty: return to normal mode.
                self.overflow[qid].active = false;
            } else if self.is_region_empty(qid) {
                // q1 is still empty (server pushed nothing but more is
                // in flight or buffered): ask again.
                self.overflow[qid].space_pending = true;
                let space = self.region_capacity(qid);
                out.push(DpAction::SendQueueSpace {
                    server: entry.home_server,
                    lock,
                    space,
                });
            }
        }
    }

    fn region_capacity(&self, qid: usize) -> u32 {
        match &self.engine {
            Engine::Fcfs(q) => {
                let v = q.cp_region(qid);
                v.capacity() - v.count
            }
            Engine::Priority(_) => 0,
        }
    }

    fn is_region_empty(&self, qid: usize) -> bool {
        match &self.engine {
            Engine::Fcfs(q) => q.cp_region(qid).count == 0,
            Engine::Priority(e) => e.cp_total_count(qid) == 0,
        }
    }

    /// True if lock `qid` is in overflow mode (tests/CP).
    pub fn overflow_active(&self, qid: usize) -> bool {
        self.overflow[qid].active
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlock_proto::{ClientAddr, LockMode, Priority, TxnId};

    fn req(lock: u32, mode: LockMode, txn: u64) -> LockRequest {
        LockRequest {
            lock: LockId(lock),
            mode,
            txn: TxnId(txn),
            client: ClientAddr(txn as u32),
            tenant: TenantId(0),
            priority: Priority(0),
            issued_at_ns: 0,
        }
    }

    fn rel(lock: u32, mode: LockMode, txn: u64) -> ReleaseRequest {
        ReleaseRequest {
            lock: LockId(lock),
            txn: TxnId(txn),
            mode,
            client: ClientAddr(txn as u32),
            priority: Priority(0),
        }
    }

    fn dp_with_lock(cap: u32) -> DataPlane {
        let mut dp = DataPlane::new_fcfs(&SharedQueueLayout::small(2, 16, 4));
        match dp.engine_mut() {
            Engine::Fcfs(q) => q.cp_set_region(0, 0, cap),
            _ => unreachable!(),
        }
        dp.directory_mut().set_switch_resident(LockId(1), 0, 0);
        dp.directory_mut().set_server_resident(LockId(2), 1);
        dp
    }

    #[test]
    fn switch_lock_grants_immediately() {
        let mut dp = dp_with_lock(8);
        let acts = dp.process_collect(NetLockMsg::Acquire(req(1, LockMode::Exclusive, 10)), 0);
        assert_eq!(acts.len(), 1);
        assert!(matches!(acts[0], DpAction::SendGrant(g) if g.txn == TxnId(10)));
        assert_eq!(dp.stats().grants_immediate, 1);
    }

    #[test]
    fn server_lock_forwards() {
        let mut dp = dp_with_lock(8);
        let acts = dp.process_collect(NetLockMsg::Acquire(req(2, LockMode::Shared, 11)), 0);
        assert_eq!(
            acts,
            vec![DpAction::ForwardAcquire {
                server: 1,
                req: req(2, LockMode::Shared, 11),
                buffer_only: false,
            }]
        );
        let acts = dp.process_collect(NetLockMsg::Release(rel(2, LockMode::Shared, 11)), 0);
        assert!(matches!(
            acts[0],
            DpAction::ForwardRelease { server: 1, .. }
        ));
    }

    #[test]
    fn unknown_lock_dropped() {
        let mut dp = dp_with_lock(8);
        let acts = dp.process_collect(NetLockMsg::Acquire(req(99, LockMode::Shared, 1)), 0);
        assert_eq!(
            acts,
            vec![DpAction::Drop {
                reason: DropReason::UnknownLock
            }]
        );
    }

    #[test]
    fn release_hands_off_to_waiter() {
        let mut dp = dp_with_lock(8);
        dp.process_collect(NetLockMsg::Acquire(req(1, LockMode::Exclusive, 1)), 0);
        let acts = dp.process_collect(NetLockMsg::Acquire(req(1, LockMode::Exclusive, 2)), 0);
        assert!(acts.is_empty(), "second X is queued silently");
        let acts = dp.process_collect(NetLockMsg::Release(rel(1, LockMode::Exclusive, 1)), 0);
        assert!(matches!(acts[0], DpAction::SendGrant(g) if g.txn == TxnId(2)));
        assert_eq!(dp.stats().grants_on_release, 1);
    }

    #[test]
    fn overflow_enters_buffer_only_mode_and_recovers() {
        let mut dp = dp_with_lock(2);
        // Fill q1.
        dp.process_collect(NetLockMsg::Acquire(req(1, LockMode::Exclusive, 1)), 0);
        dp.process_collect(NetLockMsg::Acquire(req(1, LockMode::Exclusive, 2)), 0);
        // Overflow → buffer-only forward.
        let acts = dp.process_collect(NetLockMsg::Acquire(req(1, LockMode::Exclusive, 3)), 0);
        assert_eq!(
            acts,
            vec![DpAction::ForwardAcquire {
                server: 0,
                req: req(1, LockMode::Exclusive, 3),
                buffer_only: true,
            }]
        );
        assert!(dp.overflow_active(0));
        // While in overflow mode, even though q1 may have space, new
        // requests still go to q2 to preserve order.
        let acts = dp.process_collect(NetLockMsg::Acquire(req(1, LockMode::Exclusive, 4)), 0);
        assert!(matches!(
            acts[0],
            DpAction::ForwardAcquire {
                buffer_only: true,
                ..
            }
        ));

        // Drain q1: txn1 release grants txn2; txn2 release empties q1 →
        // QueueSpace to the server.
        let acts = dp.process_collect(NetLockMsg::Release(rel(1, LockMode::Exclusive, 1)), 0);
        assert!(matches!(acts[0], DpAction::SendGrant(g) if g.txn == TxnId(2)));
        let acts = dp.process_collect(NetLockMsg::Release(rel(1, LockMode::Exclusive, 2)), 0);
        assert!(matches!(
            acts[0],
            DpAction::SendQueueSpace {
                lock: LockId(1),
                space: 2,
                ..
            }
        ));

        // Server pushes both buffered requests; first is granted.
        let acts = dp.process_collect(
            NetLockMsg::Push {
                lock: LockId(1),
                reqs: Box::new([
                    req(1, LockMode::Exclusive, 3),
                    req(1, LockMode::Exclusive, 4),
                ]),
            },
            0,
        );
        assert!(matches!(acts[0], DpAction::SendGrant(g) if g.txn == TxnId(3)));
        // forwarded == pushed → normal mode restored.
        assert!(!dp.overflow_active(0));
    }

    #[test]
    fn overflow_mode_persists_until_counters_match() {
        let mut dp = dp_with_lock(1);
        dp.process_collect(NetLockMsg::Acquire(req(1, LockMode::Exclusive, 1)), 0);
        // Two overflows.
        dp.process_collect(NetLockMsg::Acquire(req(1, LockMode::Exclusive, 2)), 0);
        dp.process_collect(NetLockMsg::Acquire(req(1, LockMode::Exclusive, 3)), 0);
        // Drain; QueueSpace(space=1).
        let acts = dp.process_collect(NetLockMsg::Release(rel(1, LockMode::Exclusive, 1)), 0);
        assert!(matches!(acts[0], DpAction::SendQueueSpace { space: 1, .. }));
        // Server pushes one of two.
        let acts = dp.process_collect(
            NetLockMsg::Push {
                lock: LockId(1),
                reqs: vec![req(1, LockMode::Exclusive, 2)].into(),
            },
            0,
        );
        assert!(matches!(acts[0], DpAction::SendGrant(g) if g.txn == TxnId(2)));
        assert!(dp.overflow_active(0), "one request still buffered");
        // Drain again; push the last one.
        let acts = dp.process_collect(NetLockMsg::Release(rel(1, LockMode::Exclusive, 2)), 0);
        assert!(matches!(acts[0], DpAction::SendQueueSpace { space: 1, .. }));
        let acts = dp.process_collect(
            NetLockMsg::Push {
                lock: LockId(1),
                reqs: vec![req(1, LockMode::Exclusive, 3)].into(),
            },
            0,
        );
        assert!(matches!(acts[0], DpAction::SendGrant(g) if g.txn == TxnId(3)));
        assert!(!dp.overflow_active(0));
    }

    #[test]
    fn empty_push_retriggers_queue_space() {
        let mut dp = dp_with_lock(1);
        dp.process_collect(NetLockMsg::Acquire(req(1, LockMode::Exclusive, 1)), 0);
        dp.process_collect(NetLockMsg::Acquire(req(1, LockMode::Exclusive, 2)), 0);
        dp.process_collect(NetLockMsg::Release(rel(1, LockMode::Exclusive, 1)), 0);
        // Server's q2 momentarily empty (request still in flight): empty push.
        let acts = dp.process_collect(
            NetLockMsg::Push {
                lock: LockId(1),
                reqs: Box::new([]),
            },
            0,
        );
        // Still in overflow mode and q1 empty → ask again.
        assert!(dp.overflow_active(0));
        assert!(matches!(acts[0], DpAction::SendQueueSpace { .. }));
    }

    #[test]
    fn quota_meter_drops_over_rate() {
        let mut dp = dp_with_lock(8);
        dp.set_tenant_meter(TenantId(0), 1_000, 1, 0);
        let acts = dp.process_collect(NetLockMsg::Acquire(req(1, LockMode::Shared, 1)), 0);
        assert!(matches!(acts[0], DpAction::SendGrant(_)));
        let acts = dp.process_collect(NetLockMsg::Acquire(req(1, LockMode::Shared, 2)), 0);
        assert_eq!(
            acts,
            vec![DpAction::Drop {
                reason: DropReason::OverQuota
            }]
        );
        assert_eq!(dp.stats().quota_drops, 1);
        // A millisecond later one token refilled.
        let acts = dp.process_collect(NetLockMsg::Acquire(req(1, LockMode::Shared, 3)), 1_000_000);
        assert!(matches!(acts[0], DpAction::SendGrant(_)));
    }

    #[test]
    fn reset_wipes_everything() {
        let mut dp = dp_with_lock(8);
        dp.process_collect(NetLockMsg::Acquire(req(1, LockMode::Exclusive, 1)), 0);
        dp.reset();
        assert_eq!(dp.stats().grants_immediate, 0);
        assert!(dp.directory().is_empty());
        let acts = dp.process_collect(NetLockMsg::Acquire(req(1, LockMode::Exclusive, 2)), 0);
        assert_eq!(
            acts,
            vec![DpAction::Drop {
                reason: DropReason::UnknownLock
            }]
        );
    }

    #[test]
    fn priority_dataplane_routes_by_priority() {
        let mut dp = DataPlane::new_priority(&PriorityLayout::new(2, 8, 2));
        dp.directory_mut().set_switch_resident(LockId(1), 0, 0);
        let mut r1 = req(1, LockMode::Exclusive, 1);
        r1.priority = Priority(1);
        let mut r2 = req(1, LockMode::Exclusive, 2);
        r2.priority = Priority(1);
        let mut r3 = req(1, LockMode::Exclusive, 3);
        r3.priority = Priority(0);
        dp.process_collect(NetLockMsg::Acquire(r1), 0);
        dp.process_collect(NetLockMsg::Acquire(r2), 0);
        dp.process_collect(NetLockMsg::Acquire(r3), 0);
        // Release the priority-1 holder; the priority-0 waiter wins.
        let mut release = rel(1, LockMode::Exclusive, 1);
        release.priority = Priority(1);
        let acts = dp.process_collect(NetLockMsg::Release(release), 0);
        assert!(matches!(acts[0], DpAction::SendGrant(g) if g.txn == TxnId(3)));
    }
}
