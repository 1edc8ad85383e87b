//! Lock-safety oracle: an out-of-band observer that checks the global
//! locking invariants the paper's design arguments promise (§4.2 queue
//! correctness, §4.4 lease reclamation, §4.5 failure handling).
//!
//! The oracle attaches to the simulator's packet tap
//! ([`netlock_sim::Simulator::set_lp_tap`]) and watches every Acquire,
//! Grant and Release on the wire, plus loss/duplication/fault events.
//! It never touches node state — it sees exactly what the network sees —
//! so a violation is a property of the protocol, not of instrumentation.
//!
//! Invariants checked:
//!
//! - **Mutual exclusion modulo leases (ME).** At the instant a grant is
//!   delivered, no *other* transaction may hold a conflicting mode on
//!   the same lock within its lease window. The lease basis is
//!   `issued_at_ns + lease` — the same basis the switch sweeper and the
//!   lock servers use — so a grant issued after a legitimate lease
//!   expiry is never a false positive.
//! - **Grant/release conservation (C1).** A client may not release a
//!   `(lock, txn)` more times than grants for it were delivered.
//! - **No leaked holds (C2).** At the end of a run, every delivered
//!   grant to a live client has been released (or the transaction is
//!   still visibly active). Catches clients that swallow surplus grants.
//! - **Liveness.** Every acquire that reached the wire is eventually
//!   answered, retried, dropped by the network, or excused by a declared
//!   amnesia point (switch reboot / server restart wipes queued
//!   requests; clients without retry logic lose them by design).
//!
//! Every ingested event is folded into an FNV-1a digest; the
//! [`Oracle::audit_log`] (counts + digest + violations) is byte-identical
//! for identical `(seed, FaultPlan)` runs, which is how the chaos suite
//! proves replayability.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use netlock_proto::{GrantMsg, LockId, LockMode, NetLockMsg, TxnId};
use netlock_sim::{FaultAction, NodeId, SimTime, Tap, TapEvent};

/// Oracle tuning. All windows are in simulated nanoseconds.
#[derive(Clone, Copy, Debug)]
pub struct OracleConfig {
    /// Lease length the rack runs with (switch + servers). Holders are
    /// considered expired — and thus non-conflicting — once
    /// `issued_at_ns + lease_ns` passes.
    pub lease_ns: u64,
    /// A held lock (C2: leaked) or an unanswered acquire (liveness:
    /// wedged) whose transaction showed no traffic for this long by the
    /// end of the run is reported. Must comfortably exceed the client
    /// retry timeout and think times.
    pub stall_after_ns: u64,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            lease_ns: 10_000_000,       // ServerConfig/SwitchConfig default
            stall_after_ns: 60_000_000, // 3x the default retry timeout
        }
    }
}

/// One invariant violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Simulated time the violation was detected.
    pub at_ns: u64,
    /// Which invariant broke.
    pub kind: ViolationKind,
    /// Human-readable specifics.
    pub detail: String,
}

/// The invariant classes the oracle enforces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViolationKind {
    /// Two conflicting unexpired holders at grant-delivery time.
    MutualExclusion,
    /// More releases than delivered grants for a `(lock, txn)`.
    Conservation,
    /// A delivered grant never released by a live, idle client.
    LeakedHold,
    /// An acquire on the wire never answered for a live, idle client.
    WedgedRequest,
}

impl std::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ViolationKind::MutualExclusion => "mutual-exclusion",
            ViolationKind::Conservation => "conservation",
            ViolationKind::LeakedHold => "leaked-hold",
            ViolationKind::WedgedRequest => "wedged-request",
        };
        f.write_str(s)
    }
}

/// An outstanding (delivered, unreleased) hold.
#[derive(Clone, Copy, Debug)]
struct Hold {
    client: NodeId,
    mode: LockMode,
    issued_at_ns: u64,
    delivered_at_ns: u64,
}

/// An acquire that reached the wire and has not been answered.
#[derive(Clone, Copy, Debug)]
struct OpenReq {
    /// Issue stamp of the latest attempt (retries re-stamp).
    issued_at_ns: u64,
    sent_at_ns: u64,
}

/// Event counters mirrored into the audit log.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OracleCounts {
    /// Packets observed leaving nodes.
    pub sent: u64,
    /// Packets dropped by link faults.
    pub lost: u64,
    /// Extra copies created by duplication faults.
    pub duplicated: u64,
    /// Packets delivered to live nodes.
    pub delivered: u64,
    /// Packets discarded at dead nodes.
    pub delivered_dead: u64,
    /// Fault-plan actions observed.
    pub faults: u64,
    /// Grant deliveries to registered clients (raw, duplicates included).
    pub grant_deliveries: u64,
    /// Grant deliveries discarded as exact duplicates.
    pub dup_grant_deliveries: u64,
    /// Releases observed leaving registered clients.
    pub releases_sent: u64,
    /// Open requests excused by amnesia declarations.
    pub amnesia_excused: u64,
}

/// The safety oracle. Feed it every [`TapEvent`]; call
/// [`Oracle::finish`] once the run ends.
pub struct Oracle {
    cfg: OracleConfig,
    clients: HashSet<NodeId>,
    dead: HashSet<NodeId>,
    /// Outstanding holds per lock. `BTreeMap` so end-of-run scans are
    /// deterministically ordered.
    holds: BTreeMap<u32, Vec<(TxnId, Hold)>>,
    /// Raw grant deliveries per `(lock, txn)`.
    deliveries: HashMap<(LockId, TxnId), u64>,
    /// Releases sent per `(lock, txn)`.
    releases: HashMap<(LockId, TxnId), u64>,
    /// Exact grants already delivered (duplicate detection).
    seen_grants: HashSet<(u32, u64, u8, u32, u8, u8, u64)>,
    /// Un-answered acquires, keyed (client, lock, txn).
    open: BTreeMap<(u32, u32, u64), OpenReq>,
    /// Last time any traffic mentioned a transaction.
    activity: HashMap<TxnId, u64>,
    counts: OracleCounts,
    digest: u64,
    violations: Vec<Violation>,
    finished: bool,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn mode_tag(m: LockMode) -> u8 {
    match m {
        LockMode::Shared => 0,
        LockMode::Exclusive => 1,
    }
}

fn grant_key(g: &GrantMsg) -> (u32, u64, u8, u32, u8, u8, u64) {
    let grantor = match g.grantor {
        netlock_proto::Grantor::Switch => 0,
        netlock_proto::Grantor::Server => 1,
    };
    (
        g.lock.0,
        g.txn.0,
        mode_tag(g.mode),
        g.client.0,
        g.priority.0,
        grantor,
        g.issued_at_ns,
    )
}

fn conflicts(a: LockMode, b: LockMode) -> bool {
    matches!(a, LockMode::Exclusive) || matches!(b, LockMode::Exclusive)
}

impl Oracle {
    /// A fresh oracle.
    pub fn new(cfg: OracleConfig) -> Oracle {
        Oracle {
            cfg,
            clients: HashSet::new(),
            dead: HashSet::new(),
            holds: BTreeMap::new(),
            deliveries: HashMap::new(),
            releases: HashMap::new(),
            seen_grants: HashSet::new(),
            open: BTreeMap::new(),
            activity: HashMap::new(),
            counts: OracleCounts::default(),
            digest: FNV_OFFSET,
            violations: Vec::new(),
            finished: false,
        }
    }

    /// Declare a node as a lock client. Only registered clients'
    /// acquires/releases/grants are tracked.
    pub fn register_client(&mut self, id: NodeId) {
        self.clients.insert(id);
    }

    /// Event counters so far.
    pub fn counts(&self) -> OracleCounts {
        self.counts
    }

    /// Violations recorded so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// FNV-1a digest over every ingested event, in ingestion order.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    fn fold(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.digest ^= b as u64;
            self.digest = self.digest.wrapping_mul(FNV_PRIME);
        }
    }

    fn fold_u64(&mut self, v: u64) {
        self.fold(&v.to_le_bytes());
    }

    fn fold_msg(&mut self, tag: u8, at: SimTime, src: u32, dst: u32, msg: &NetLockMsg) {
        self.fold(&[tag]);
        self.fold_u64(at.as_nanos());
        self.fold_u64(src as u64);
        self.fold_u64(dst as u64);
        // Derived Debug output is deterministic and covers every field.
        let repr = format!("{msg:?}");
        self.fold(repr.as_bytes());
    }

    fn touch(&mut self, txn: TxnId, at: u64) {
        let e = self.activity.entry(txn).or_insert(at);
        if *e < at {
            *e = at;
        }
    }

    fn touch_msg(&mut self, msg: &NetLockMsg, at: u64) {
        let reqs = match msg {
            NetLockMsg::Forwarded { req, .. } => std::slice::from_ref(req),
            NetLockMsg::Push { reqs, .. } => reqs,
            _ => msg.acquires(),
        };
        let grants = match msg {
            NetLockMsg::DbFetch { grant } => std::slice::from_ref(grant),
            _ => msg.grants(),
        };
        let txns = reqs.iter().map(|r| r.txn);
        let txns = txns.chain(msg.releases().iter().map(|r| r.txn));
        for txn in txns.chain(grants.iter().map(|g| g.txn)) {
            self.touch(txn, at);
        }
    }

    fn violate(&mut self, at_ns: u64, kind: ViolationKind, detail: String) {
        self.violations.push(Violation {
            at_ns,
            kind,
            detail,
        });
    }

    /// Grant (or one-RTT DbReply) delivered to a registered client.
    fn on_grant_delivered(&mut self, at: u64, dst: NodeId, g: &GrantMsg) {
        self.counts.grant_deliveries += 1;
        *self.deliveries.entry((g.lock, g.txn)).or_insert(0) += 1;
        self.open.remove(&(dst.0, g.lock.0, g.txn.0));
        if !self.seen_grants.insert(grant_key(g)) {
            // Exact duplicate of an earlier delivery (network
            // duplication): the client is required to ignore it, and it
            // confers no new hold.
            self.counts.dup_grant_deliveries += 1;
            return;
        }
        // ME check against every unexpired hold by a *different*
        // transaction.
        let lease = self.cfg.lease_ns;
        let mut clash: Option<(TxnId, Hold)> = None;
        if let Some(entries) = self.holds.get(&g.lock.0) {
            for &(txn, hold) in entries {
                if txn != g.txn
                    && hold.issued_at_ns.saturating_add(lease) > at
                    && conflicts(hold.mode, g.mode)
                {
                    clash = Some((txn, hold));
                    break;
                }
            }
        }
        if let Some((txn, hold)) = clash {
            self.violate(
                at,
                ViolationKind::MutualExclusion,
                format!(
                    "lock {} granted {:?} to txn {} (client {}) while txn {} (client {}) \
                     holds {:?} (issued {} ns, lease ends {} ns)",
                    g.lock.0,
                    g.mode,
                    g.txn.0,
                    dst.0,
                    txn.0,
                    hold.client.0,
                    hold.mode,
                    hold.issued_at_ns,
                    hold.issued_at_ns.saturating_add(lease),
                ),
            );
        }
        self.holds.entry(g.lock.0).or_default().push((
            g.txn,
            Hold {
                client: dst,
                mode: g.mode,
                issued_at_ns: g.issued_at_ns,
                delivered_at_ns: at,
            },
        ));
    }

    /// Release observed leaving a registered client.
    fn on_release_sent(&mut self, at: u64, src: NodeId, lock: LockId, txn: TxnId) {
        self.counts.releases_sent += 1;
        let rel = self.releases.entry((lock, txn)).or_insert(0);
        *rel += 1;
        let delivered = self.deliveries.get(&(lock, txn)).copied().unwrap_or(0);
        if *rel > delivered {
            let n = *rel;
            self.violate(
                at,
                ViolationKind::Conservation,
                format!(
                    "client {} released lock {} txn {} ({} releases, {} grant deliveries)",
                    src.0, lock.0, txn.0, n, delivered
                ),
            );
        }
        if let Some(entries) = self.holds.get_mut(&lock.0) {
            // Retry duplicates can put several entries for the same txn in
            // the engine's queue, each granted with its own request stamp.
            // The engine's grant-on-release pops the entry it granted most
            // recently (the freshest stamp); mirror that by removing the
            // matching hold with the greatest `issued_at_ns`, so the holds
            // that remain are the earliest-expiring ones and the oracle's
            // notion of "still held" never outlives the engine's.
            let pos = entries
                .iter()
                .enumerate()
                .filter(|(_, &(t, _))| t == txn)
                .max_by_key(|(_, (_, h))| h.issued_at_ns)
                .map(|(i, _)| i);
            if let Some(pos) = pos {
                entries.remove(pos);
                if entries.is_empty() {
                    self.holds.remove(&lock.0);
                }
            }
        }
    }

    /// Ingest one tap event. Wire this as the body of the simulator tap.
    pub fn observe(&mut self, ev: &TapEvent<'_, NetLockMsg>) {
        match *ev {
            TapEvent::Sent {
                at,
                src,
                dst,
                payload,
            } => {
                self.counts.sent += 1;
                self.fold_msg(b'S', at, src.0, dst.0, payload);
                let now = at.as_nanos();
                self.touch_msg(payload, now);
                if self.clients.contains(&src) {
                    // A batch is many logical acquires or releases: each
                    // element is tracked exactly as if sent alone.
                    for req in payload.acquires() {
                        self.open.insert(
                            (src.0, req.lock.0, req.txn.0),
                            OpenReq {
                                issued_at_ns: req.issued_at_ns,
                                sent_at_ns: now,
                            },
                        );
                    }
                    for rel in payload.releases() {
                        self.on_release_sent(now, src, rel.lock, rel.txn);
                    }
                }
            }
            TapEvent::Lost {
                at,
                src,
                dst,
                payload,
            } => {
                self.counts.lost += 1;
                self.fold_msg(b'L', at, src.0, dst.0, payload);
                let now = at.as_nanos();
                self.touch_msg(payload, now);
                // The network ate this copy; whatever it would have told
                // the receiver is excused for liveness purposes. Clients
                // with retry logic re-open the request on the next send.
                // Losing a batch loses every acquire in it.
                if self.clients.contains(&src) {
                    for req in payload.acquires() {
                        let key = (src.0, req.lock.0, req.txn.0);
                        if let Some(open) = self.open.get(&key) {
                            if open.issued_at_ns == req.issued_at_ns {
                                self.open.remove(&key);
                            }
                        }
                    }
                }
                if let NetLockMsg::Forwarded { req, .. } = payload {
                    self.open.remove(&(req.client.0, req.lock.0, req.txn.0));
                }
                for g in payload.grants() {
                    self.open.remove(&(g.client.0, g.lock.0, g.txn.0));
                }
            }
            TapEvent::Duplicated {
                at,
                src,
                dst,
                payload,
            } => {
                self.counts.duplicated += 1;
                self.fold_msg(b'D', at, src.0, dst.0, payload);
            }
            TapEvent::Delivered { at, pkt } => {
                self.counts.delivered += 1;
                self.fold_msg(b'd', at, pkt.src.0, pkt.dst.0, &pkt.payload);
                let now = at.as_nanos();
                self.touch_msg(&pkt.payload, now);
                if self.clients.contains(&pkt.dst) {
                    // Coalesced grants confer one hold each, in slice
                    // order — identical to arriving singly.
                    for g in pkt.payload.grants() {
                        self.on_grant_delivered(now, pkt.dst, g);
                    }
                }
            }
            TapEvent::DeliveredToDead { at, pkt } => {
                self.counts.delivered_dead += 1;
                self.fold_msg(b'x', at, pkt.src.0, pkt.dst.0, &pkt.payload);
                let now = at.as_nanos();
                self.touch_msg(&pkt.payload, now);
                // The receiver is gone; nothing further can come of this
                // packet, so close any request it would have answered or
                // carried.
                let reqs = match &pkt.payload {
                    NetLockMsg::Forwarded { req, .. } => std::slice::from_ref(req),
                    payload => payload.acquires(),
                };
                for req in reqs {
                    self.open.remove(&(req.client.0, req.lock.0, req.txn.0));
                }
                for g in pkt.payload.grants() {
                    self.open.remove(&(g.client.0, g.lock.0, g.txn.0));
                }
            }
            TapEvent::Fault { at, action } => {
                self.counts.faults += 1;
                self.fold(b"F");
                self.fold_u64(at.as_nanos());
                let repr = format!("{action:?}");
                let bytes = repr.into_bytes();
                self.fold(&bytes);
                match action {
                    FaultAction::FailNode(n) => {
                        self.dead.insert(n);
                    }
                    // A switch or server that comes back from the dead
                    // comes back with nothing (`on_revive`): whatever it
                    // had queued is forgotten.
                    FaultAction::ReviveNode(n) => {
                        let was_dead = self.dead.remove(&n);
                        if was_dead && !self.clients.contains(&n) {
                            self.note_amnesia(at.as_nanos());
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    /// Declare an amnesia point: a lock manager just lost its queues
    /// (switch reboot, server restart with state loss). Every acquire
    /// currently on the wire or queued may be silently forgotten, so
    /// outstanding open requests stop counting toward liveness. Clients
    /// with retry logic will re-open theirs on the next retransmission.
    fn note_amnesia(&mut self, now_ns: u64) {
        let excused = self.open.len() as u64;
        self.open.clear();
        self.counts.amnesia_excused += excused;
        self.fold(b"A");
        self.fold_u64(now_ns);
        self.fold_u64(excused);
    }

    /// End-of-run checks (C2 + liveness). Idempotent; call once after
    /// the last simulated event.
    pub fn finish(&mut self, now_ns: u64) {
        if self.finished {
            return;
        }
        self.finished = true;
        // C2: leaked holds. A hold by a live client whose transaction
        // has been silent for `stall_after_ns` was consumed and never
        // released — even if the lease already reclaimed it switch-side,
        // the client-side leak is a protocol bug.
        let mut leaks: Vec<Violation> = Vec::new();
        for (&lock, entries) in &self.holds {
            for &(txn, hold) in entries {
                if self.dead.contains(&hold.client) {
                    continue;
                }
                let last = self
                    .activity
                    .get(&txn)
                    .copied()
                    .unwrap_or(hold.delivered_at_ns);
                if last.saturating_add(self.cfg.stall_after_ns) < now_ns {
                    leaks.push(Violation {
                        at_ns: now_ns,
                        kind: ViolationKind::LeakedHold,
                        detail: format!(
                            "client {} still holds lock {} txn {} ({:?}, delivered {} ns, \
                             last activity {} ns)",
                            hold.client.0, lock, txn.0, hold.mode, hold.delivered_at_ns, last
                        ),
                    });
                }
            }
        }
        // Liveness: wedged requests.
        let mut wedges: Vec<Violation> = Vec::new();
        for (&(client, lock, txn), req) in &self.open {
            if self.dead.contains(&NodeId(client)) {
                continue;
            }
            let last = self
                .activity
                .get(&TxnId(txn))
                .copied()
                .unwrap_or(req.sent_at_ns);
            if last.saturating_add(self.cfg.stall_after_ns) < now_ns {
                wedges.push(Violation {
                    at_ns: now_ns,
                    kind: ViolationKind::WedgedRequest,
                    detail: format!(
                        "acquire by client {client} for lock {lock} txn {txn} unanswered \
                         (sent {} ns, last txn activity {} ns)",
                        req.sent_at_ns, last
                    ),
                });
            }
        }
        self.violations.extend(leaks);
        self.violations.extend(wedges);
    }

    /// Whether any invariant broke.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The canonical audit log: event counts, digest, violations,
    /// verdict. Byte-identical for identical `(seed, FaultPlan)` runs.
    pub fn audit_log(&self) -> String {
        let c = &self.counts;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "events: sent={} lost={} duplicated={} delivered={} delivered_dead={} faults={}",
            c.sent, c.lost, c.duplicated, c.delivered, c.delivered_dead, c.faults
        );
        let _ = writeln!(
            out,
            "grants: delivered={} duplicates={} releases_sent={} amnesia_excused={}",
            c.grant_deliveries, c.dup_grant_deliveries, c.releases_sent, c.amnesia_excused
        );
        let _ = writeln!(out, "digest: {:016x}", self.digest);
        for v in &self.violations {
            let _ = writeln!(
                out,
                "violation: at={} kind={} {}",
                v.at_ns, v.kind, v.detail
            );
        }
        if self.violations.is_empty() {
            let _ = writeln!(out, "verdict: CLEAN");
        } else {
            let _ = writeln!(out, "verdict: VIOLATIONS={}", self.violations.len());
        }
        out
    }
}

/// A fresh oracle with `clients` registered, and the simulator tap that
/// feeds it every event. Install the tap on the simulator (or on the
/// clients' logical process) the oracle should watch; every attach
/// helper in this crate is this plus one `set_lp_tap`.
pub fn oracle_tap(
    cfg: OracleConfig,
    clients: impl IntoIterator<Item = NodeId>,
) -> (Arc<Mutex<Oracle>>, Tap<NetLockMsg>) {
    let mut oracle = Oracle::new(cfg);
    for id in clients {
        oracle.register_client(id);
    }
    let oracle = Arc::new(Mutex::new(oracle));
    let fed = Arc::clone(&oracle);
    let tap = Box::new(move |ev: TapEvent<'_, NetLockMsg>| {
        fed.lock().expect("oracle lock poisoned").observe(&ev)
    });
    (oracle, tap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlock_proto::{ClientAddr, Grantor, LockRequest, Priority, TenantId};
    use netlock_sim::Packet;

    fn grant(lock: u32, txn: u64, mode: LockMode, client: u32, issued: u64) -> GrantMsg {
        GrantMsg {
            lock: LockId(lock),
            txn: TxnId(txn),
            mode,
            client: ClientAddr(client),
            priority: Priority(0),
            grantor: Grantor::Switch,
            issued_at_ns: issued,
        }
    }

    fn deliver(o: &mut Oracle, at: u64, dst: u32, g: GrantMsg) {
        let pkt = Packet {
            src: NodeId(0),
            dst: NodeId(dst),
            payload: NetLockMsg::Grant(g),
        };
        o.observe(&TapEvent::Delivered {
            at: SimTime(at),
            pkt: &pkt,
        });
    }

    fn send_release(o: &mut Oracle, at: u64, src: u32, lock: u32, txn: u64, mode: LockMode) {
        let rel = netlock_proto::ReleaseRequest {
            lock: LockId(lock),
            txn: TxnId(txn),
            mode,
            client: ClientAddr(src),
            priority: Priority(0),
        };
        let payload = NetLockMsg::Release(rel);
        o.observe(&TapEvent::Sent {
            at: SimTime(at),
            src: NodeId(src),
            dst: NodeId(0),
            payload: &payload,
        });
    }

    fn oracle_with_clients(ids: &[u32]) -> Oracle {
        let mut o = Oracle::new(OracleConfig {
            lease_ns: 10_000_000,
            stall_after_ns: 1_000_000,
        });
        for &id in ids {
            o.register_client(NodeId(id));
        }
        o
    }

    #[test]
    fn double_exclusive_grant_is_flagged() {
        let mut o = oracle_with_clients(&[5, 6]);
        deliver(&mut o, 1_000, 5, grant(1, 100, LockMode::Exclusive, 5, 500));
        deliver(&mut o, 2_000, 6, grant(1, 200, LockMode::Exclusive, 6, 600));
        assert_eq!(o.violations().len(), 1);
        assert_eq!(o.violations()[0].kind, ViolationKind::MutualExclusion);
    }

    #[test]
    fn shared_grants_coexist() {
        let mut o = oracle_with_clients(&[5, 6]);
        deliver(&mut o, 1_000, 5, grant(1, 100, LockMode::Shared, 5, 500));
        deliver(&mut o, 2_000, 6, grant(1, 200, LockMode::Shared, 6, 600));
        assert!(o.is_clean());
    }

    #[test]
    fn grant_after_release_is_fine() {
        let mut o = oracle_with_clients(&[5, 6]);
        deliver(&mut o, 1_000, 5, grant(1, 100, LockMode::Exclusive, 5, 500));
        send_release(&mut o, 5_000, 5, 1, 100, LockMode::Exclusive);
        deliver(&mut o, 9_000, 6, grant(1, 200, LockMode::Exclusive, 6, 600));
        assert!(o.is_clean(), "{:?}", o.violations());
    }

    #[test]
    fn grant_after_lease_expiry_is_fine() {
        let mut o = oracle_with_clients(&[5, 6]);
        // Holder issued at 500 ns, lease 10 ms: expired at 10_000_500.
        deliver(&mut o, 1_000, 5, grant(1, 100, LockMode::Exclusive, 5, 500));
        deliver(
            &mut o,
            11_000_000,
            6,
            grant(1, 200, LockMode::Exclusive, 6, 10_900_000),
        );
        assert!(o.is_clean(), "{:?}", o.violations());
    }

    #[test]
    fn duplicate_delivery_confers_no_hold() {
        let mut o = oracle_with_clients(&[5, 6]);
        let g = grant(1, 100, LockMode::Exclusive, 5, 500);
        deliver(&mut o, 1_000, 5, g);
        deliver(&mut o, 1_500, 5, g); // network duplicate
        assert_eq!(o.counts().dup_grant_deliveries, 1);
        send_release(&mut o, 2_000, 5, 1, 100, LockMode::Exclusive);
        // The single logical hold is gone; a new grant is legal.
        deliver(&mut o, 3_000, 6, grant(1, 200, LockMode::Exclusive, 6, 700));
        assert!(o.is_clean(), "{:?}", o.violations());
    }

    #[test]
    fn over_release_is_conservation_violation() {
        let mut o = oracle_with_clients(&[5]);
        deliver(&mut o, 1_000, 5, grant(1, 100, LockMode::Exclusive, 5, 500));
        send_release(&mut o, 2_000, 5, 1, 100, LockMode::Exclusive);
        send_release(&mut o, 3_000, 5, 1, 100, LockMode::Exclusive);
        assert_eq!(o.violations().len(), 1);
        assert_eq!(o.violations()[0].kind, ViolationKind::Conservation);
    }

    #[test]
    fn unreleased_hold_is_leak_at_finish() {
        let mut o = oracle_with_clients(&[5]);
        deliver(&mut o, 1_000, 5, grant(1, 100, LockMode::Exclusive, 5, 500));
        o.finish(50_000_000);
        assert_eq!(o.violations().len(), 1);
        assert_eq!(o.violations()[0].kind, ViolationKind::LeakedHold);
    }

    #[test]
    fn active_txn_hold_is_not_a_leak() {
        let mut o = oracle_with_clients(&[5]);
        deliver(&mut o, 1_000, 5, grant(1, 100, LockMode::Exclusive, 5, 500));
        // Recent traffic touching the txn (e.g. an acquire for its next
        // lock) keeps the hold excused.
        let req = LockRequest {
            lock: LockId(2),
            mode: LockMode::Exclusive,
            txn: TxnId(100),
            client: ClientAddr(5),
            tenant: TenantId(0),
            priority: Priority(0),
            issued_at_ns: 49_900_000,
        };
        let payload = NetLockMsg::Acquire(req);
        o.observe(&TapEvent::Sent {
            at: SimTime(49_900_000),
            src: NodeId(5),
            dst: NodeId(0),
            payload: &payload,
        });
        o.finish(50_000_000);
        let leak = o
            .violations()
            .iter()
            .any(|v| v.kind == ViolationKind::LeakedHold && v.detail.contains("lock 1"));
        assert!(!leak, "{:?}", o.violations());
    }

    #[test]
    fn unanswered_acquire_is_wedged_at_finish() {
        let mut o = oracle_with_clients(&[5]);
        let req = LockRequest {
            lock: LockId(1),
            mode: LockMode::Exclusive,
            txn: TxnId(100),
            client: ClientAddr(5),
            tenant: TenantId(0),
            priority: Priority(0),
            issued_at_ns: 1_000,
        };
        let payload = NetLockMsg::Acquire(req);
        o.observe(&TapEvent::Sent {
            at: SimTime(1_000),
            src: NodeId(5),
            dst: NodeId(0),
            payload: &payload,
        });
        o.finish(50_000_000);
        assert_eq!(o.violations().len(), 1);
        assert_eq!(o.violations()[0].kind, ViolationKind::WedgedRequest);
    }

    #[test]
    fn amnesia_excuses_open_requests() {
        let mut o = oracle_with_clients(&[5]);
        let req = LockRequest {
            lock: LockId(1),
            mode: LockMode::Exclusive,
            txn: TxnId(100),
            client: ClientAddr(5),
            tenant: TenantId(0),
            priority: Priority(0),
            issued_at_ns: 1_000,
        };
        let payload = NetLockMsg::Acquire(req);
        o.observe(&TapEvent::Sent {
            at: SimTime(1_000),
            src: NodeId(5),
            dst: NodeId(0),
            payload: &payload,
        });
        o.note_amnesia(2_000);
        o.finish(50_000_000);
        assert!(o.is_clean(), "{:?}", o.violations());
        assert_eq!(o.counts().amnesia_excused, 1);
    }

    #[test]
    fn dead_clients_are_exempt() {
        let mut o = oracle_with_clients(&[5]);
        deliver(&mut o, 1_000, 5, grant(1, 100, LockMode::Exclusive, 5, 500));
        o.observe(&TapEvent::Fault {
            at: SimTime(2_000),
            action: FaultAction::FailNode(NodeId(5)),
        });
        o.finish(50_000_000);
        assert!(o.is_clean(), "{:?}", o.violations());
    }

    fn acquire(lock: u32, txn: u64, client: u32, issued: u64) -> LockRequest {
        LockRequest {
            lock: LockId(lock),
            mode: LockMode::Exclusive,
            txn: TxnId(txn),
            client: ClientAddr(client),
            tenant: TenantId(0),
            priority: Priority(0),
            issued_at_ns: issued,
        }
    }

    #[test]
    fn batched_grants_confer_holds_like_singles() {
        // Two exclusive grants for the same lock inside one GrantBatch:
        // the second must clash with the first exactly as if they had
        // been delivered as two Grant packets.
        let mut o = oracle_with_clients(&[5]);
        let batch: Box<[GrantMsg]> = vec![
            grant(1, 100, LockMode::Exclusive, 5, 500),
            grant(1, 200, LockMode::Exclusive, 5, 600),
        ]
        .into();
        let pkt = Packet {
            src: NodeId(0),
            dst: NodeId(5),
            payload: NetLockMsg::GrantBatch(batch),
        };
        o.observe(&TapEvent::Delivered {
            at: SimTime(1_000),
            pkt: &pkt,
        });
        assert_eq!(o.counts().grant_deliveries, 2);
        assert_eq!(o.violations().len(), 1);
        assert_eq!(o.violations()[0].kind, ViolationKind::MutualExclusion);
    }

    #[test]
    fn batched_over_release_is_caught() {
        // Sabotage: a ReleaseBatch releasing the same grant twice must
        // trip conservation — batching is no loophole.
        let mut o = oracle_with_clients(&[5]);
        deliver(&mut o, 1_000, 5, grant(1, 100, LockMode::Exclusive, 5, 500));
        let rel = netlock_proto::ReleaseRequest {
            lock: LockId(1),
            txn: TxnId(100),
            mode: LockMode::Exclusive,
            client: ClientAddr(5),
            priority: Priority(0),
        };
        let payload = NetLockMsg::ReleaseBatch(vec![rel, rel].into());
        o.observe(&TapEvent::Sent {
            at: SimTime(2_000),
            src: NodeId(5),
            dst: NodeId(0),
            payload: &payload,
        });
        assert_eq!(o.counts().releases_sent, 2);
        assert_eq!(o.violations().len(), 1);
        assert_eq!(o.violations()[0].kind, ViolationKind::Conservation);
    }

    #[test]
    fn batched_acquires_open_and_lost_batches_close() {
        let mut o = oracle_with_clients(&[5]);
        let reqs: Box<[LockRequest]> =
            vec![acquire(1, 100, 5, 1_000), acquire(2, 101, 5, 1_000)].into();
        let payload = NetLockMsg::AcquireBatch(reqs.clone());
        o.observe(&TapEvent::Sent {
            at: SimTime(1_000),
            src: NodeId(5),
            dst: NodeId(0),
            payload: &payload,
        });
        // Both un-answered: both wedge.
        let mut probe = oracle_with_clients(&[5]);
        std::mem::swap(&mut probe, &mut o);
        probe.finish(50_000_000);
        assert_eq!(probe.violations().len(), 2);
        // Same send, then the batch is lost: nothing wedges.
        o.observe(&TapEvent::Sent {
            at: SimTime(1_000),
            src: NodeId(5),
            dst: NodeId(0),
            payload: &payload,
        });
        o.observe(&TapEvent::Lost {
            at: SimTime(1_000),
            src: NodeId(5),
            dst: NodeId(0),
            payload: &payload,
        });
        o.finish(50_000_000);
        assert!(o.is_clean(), "{:?}", o.violations());
    }

    #[test]
    fn audit_log_shape_and_determinism() {
        let run = || {
            let mut o = oracle_with_clients(&[5, 6]);
            deliver(&mut o, 1_000, 5, grant(1, 100, LockMode::Shared, 5, 500));
            send_release(&mut o, 2_000, 5, 1, 100, LockMode::Shared);
            o.finish(10_000_000);
            o.audit_log()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.contains("verdict: CLEAN"));
        assert!(a.contains("digest: "));
    }
}
