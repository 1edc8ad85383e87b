//! Exhaustive path exploration of the data plane.
//!
//! Enumerates reachable data-plane states — lock residence × overflow
//! protocol phase × queue fullness, for each engine variant — crosses
//! them with every [`NetLockMsg`] kind, runs
//! [`crate::dataplane::DataPlane::process`] with an access-trace sink
//! attached, and checks every recorded pass against the §4.2 hardware
//! discipline ([`super::trace::check_discipline`]).
//!
//! Probes respect protocol preconditions: a server only pushes requests
//! after the switch advertised queue space, so a non-empty `Push` is not
//! sent at a full region (the data plane debug-asserts on that invariant
//! violation, by design). Every message *kind* is still probed in every
//! state.

use std::collections::BTreeMap;
use std::fmt;

use netlock_proto::{
    ClientAddr, GrantMsg, Grantor, LockId, LockMode, LockRequest, NetLockMsg, Priority,
    ReleaseRequest, TenantId, TxnId,
};

use crate::dataplane::{DataPlane, Engine};
use crate::priority::PriorityLayout;
use crate::shared_queue::SharedQueueLayout;

use super::trace::{check_discipline, new_sink, DisciplineViolation, TraceSink, TraceStats};

/// Which engine variant a data plane is explored with.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EngineKind {
    /// The FCFS engine ([`crate::shared_queue::SharedQueue::acquire`] /
    /// [`crate::shared_queue::SharedQueue::release`]).
    Fcfs,
    /// The priority engine ([`crate::priority::PriorityEngine`]).
    Priority,
}

/// Where the probed lock lives.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ResidenceKind {
    /// Switch-resident, with queue fullness and protocol phase.
    Switch(Fullness, Protocol),
    /// Server-resident (directory entry points at a server).
    Server,
    /// No directory entry, no default route: drops.
    UnknownUnrouted,
    /// No directory entry, default routing installed: forwards.
    UnknownRouted,
}

/// How full the probed lock's queue region is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Fullness {
    Empty,
    Holder,
    Full,
}

/// Overflow-protocol phase of the probed lock (§4.3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Protocol {
    Normal,
    Overflow,
}

/// A discipline violation found during exploration, with the state and
/// probe that exposed it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ExplorationError {
    /// Description of the explored state.
    pub state: String,
    /// The message kind being probed ("setup" for state construction).
    pub probe: &'static str,
    /// The underlying violation.
    pub violation: DisciplineViolation,
}

impl fmt::Display for ExplorationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "in state [{}], probing {}: {}",
            self.state, self.probe, self.violation
        )
    }
}

impl std::error::Error for ExplorationError {}

/// What an exploration covered.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ExplorationSummary {
    /// Engine variant explored.
    pub engine: EngineKind,
    /// Distinct states enumerated.
    pub states: usize,
    /// Probe messages processed (each on a freshly rebuilt state).
    pub probes: usize,
    /// `message kind -> probes of that kind`.
    pub probes_by_kind: BTreeMap<&'static str, u64>,
    /// `message kind -> deepest resubmit depth any probe of that kind
    /// reached` (setup traffic excluded). This is what a feasibility
    /// failure prints so the offender is named, not just detected.
    pub max_resubmit_by_kind: BTreeMap<&'static str, u32>,
    /// Aggregate pass statistics over every checked trace.
    pub stats: TraceStats,
}

const SWITCH_LOCK: LockId = LockId(1);
const SERVER_LOCK: LockId = LockId(2);
const UNKNOWN_LOCK: LockId = LockId(99);

/// Region capacity of the FCFS probe lock (small, so Full and Overflow
/// are cheap to reach while still exercising the shared-grant cascade).
const FCFS_CAP: u32 = 3;

fn lock_req(lock: LockId, mode: LockMode, prio: u8, txn: u64) -> LockRequest {
    LockRequest {
        lock,
        mode,
        txn: TxnId(txn),
        client: ClientAddr(txn as u32),
        tenant: TenantId(0),
        priority: Priority(prio),
        issued_at_ns: 0,
    }
}

fn acq(lock: LockId, mode: LockMode, prio: u8, txn: u64) -> NetLockMsg {
    NetLockMsg::Acquire(lock_req(lock, mode, prio, txn))
}

fn rel(lock: LockId, mode: LockMode, prio: u8, txn: u64) -> NetLockMsg {
    NetLockMsg::Release(ReleaseRequest {
        lock,
        txn: TxnId(txn),
        mode,
        client: ClientAddr(txn as u32),
        priority: Priority(prio),
    })
}

fn grant_msg(lock: LockId) -> GrantMsg {
    GrantMsg {
        lock,
        txn: TxnId(700),
        mode: LockMode::Shared,
        client: ClientAddr(700),
        priority: Priority(0),
        grantor: Grantor::Switch,
        issued_at_ns: 0,
    }
}

fn fresh_dp(kind: EngineKind) -> DataPlane {
    let mut dp = match kind {
        EngineKind::Fcfs => {
            let mut dp = DataPlane::new_fcfs(&SharedQueueLayout::small(2, 4, 4));
            if let Engine::Fcfs(q) = dp.engine_mut() {
                q.cp_set_region(0, 0, FCFS_CAP);
            }
            dp
        }
        EngineKind::Priority => DataPlane::new_priority(&PriorityLayout::new(3, 3, 2)),
    };
    dp.directory_mut().set_switch_resident(SWITCH_LOCK, 0, 0);
    dp.directory_mut().set_server_resident(SERVER_LOCK, 1);
    dp
}

/// Acquire messages that realize a fullness level. The exclusive entry
/// sits at priority 1 and the shared entries at priority 0, so the
/// priority engine spreads them over levels; the `Full` pattern fills
/// the FCFS region exactly (X, S, S) and fills the priority engine's
/// level-0 queue (X@1, S@0 ×3) so an acquire probe hits its overflow.
fn fill_msgs(kind: EngineKind, fullness: Fullness) -> Vec<NetLockMsg> {
    match (kind, fullness) {
        (_, Fullness::Empty) => Vec::new(),
        (_, Fullness::Holder) => vec![acq(SWITCH_LOCK, LockMode::Exclusive, 1, 100)],
        (EngineKind::Fcfs, Fullness::Full) => vec![
            acq(SWITCH_LOCK, LockMode::Exclusive, 1, 100),
            acq(SWITCH_LOCK, LockMode::Shared, 0, 101),
            acq(SWITCH_LOCK, LockMode::Shared, 0, 102),
        ],
        (EngineKind::Priority, Fullness::Full) => vec![
            acq(SWITCH_LOCK, LockMode::Exclusive, 1, 100),
            acq(SWITCH_LOCK, LockMode::Shared, 0, 101),
            acq(SWITCH_LOCK, LockMode::Shared, 0, 102),
            acq(SWITCH_LOCK, LockMode::Shared, 0, 103),
        ],
    }
}

/// Build one state from scratch, processing every setup message.
fn build_state(kind: EngineKind, state: ResidenceKind, sink: &TraceSink) -> DataPlane {
    let mut dp = fresh_dp(kind);
    dp.set_trace_sink(Some(sink.clone()));
    match state {
        ResidenceKind::Switch(fullness, protocol) => {
            match protocol {
                Protocol::Normal => {
                    for m in fill_msgs(kind, fullness) {
                        dp.process_collect(m, 0);
                    }
                }
                Protocol::Overflow => {
                    // Reachable only through a full region (FCFS): fill,
                    // overflow once, then drain back to the target level.
                    for m in fill_msgs(kind, Fullness::Full) {
                        dp.process_collect(m, 0);
                    }
                    dp.process_collect(acq(SWITCH_LOCK, LockMode::Exclusive, 1, 900), 0);
                    let releases: &[NetLockMsg] = &[
                        rel(SWITCH_LOCK, LockMode::Exclusive, 1, 100),
                        rel(SWITCH_LOCK, LockMode::Shared, 0, 101),
                        rel(SWITCH_LOCK, LockMode::Shared, 0, 102),
                    ];
                    let drain = match fullness {
                        Fullness::Full => 0,
                        Fullness::Holder => 2,
                        Fullness::Empty => 3,
                    };
                    for m in &releases[..drain] {
                        dp.process_collect(m.clone(), 0);
                    }
                }
            }
        }
        ResidenceKind::Server | ResidenceKind::UnknownUnrouted => {}
        ResidenceKind::UnknownRouted => dp.set_default_servers(2),
    }
    dp
}

fn probe_lock(state: ResidenceKind) -> LockId {
    match state {
        ResidenceKind::Switch(..) => SWITCH_LOCK,
        ResidenceKind::Server => SERVER_LOCK,
        ResidenceKind::UnknownUnrouted | ResidenceKind::UnknownRouted => UNKNOWN_LOCK,
    }
}

/// Every message kind, instantiated for the state's lock. Non-empty
/// pushes are withheld from full regions (see module docs).
fn probes_for(state: ResidenceKind) -> Vec<(&'static str, NetLockMsg)> {
    let lock = probe_lock(state);
    let full_region = matches!(state, ResidenceKind::Switch(Fullness::Full, _));
    let mut probes = vec![
        ("Acquire", acq(lock, LockMode::Shared, 0, 500)),
        ("Acquire", acq(lock, LockMode::Exclusive, 1, 501)),
        ("Release", rel(lock, LockMode::Shared, 0, 101)),
        ("Release", rel(lock, LockMode::Exclusive, 1, 100)),
        ("Grant", NetLockMsg::Grant(grant_msg(lock))),
        (
            "Forwarded",
            NetLockMsg::Forwarded {
                req: lock_req(lock, LockMode::Exclusive, 1, 502),
                buffer_only: true,
            },
        ),
        ("QueueSpace", NetLockMsg::QueueSpace { lock, space: 1 }),
        (
            "Push",
            NetLockMsg::Push {
                lock,
                reqs: Box::new([]),
            },
        ),
        (
            "DbFetch",
            NetLockMsg::DbFetch {
                grant: grant_msg(lock),
            },
        ),
        (
            "DbReply",
            NetLockMsg::DbReply {
                grant: grant_msg(lock),
            },
        ),
    ];
    if !full_region {
        probes.push((
            "Push",
            NetLockMsg::Push {
                lock,
                reqs: Box::new([lock_req(lock, LockMode::Shared, 0, 503)]),
            },
        ));
    }
    probes
}

fn states_for(kind: EngineKind) -> Vec<ResidenceKind> {
    let fullnesses = [Fullness::Empty, Fullness::Holder, Fullness::Full];
    let mut states = Vec::new();
    for &f in &fullnesses {
        states.push(ResidenceKind::Switch(f, Protocol::Normal));
        // Overflow requires the q1/q2 machinery, which only the FCFS
        // engine implements.
        if kind == EngineKind::Fcfs {
            states.push(ResidenceKind::Switch(f, Protocol::Overflow));
        }
    }
    states.push(ResidenceKind::Server);
    states.push(ResidenceKind::UnknownUnrouted);
    states.push(ResidenceKind::UnknownRouted);
    states
}

/// Explore one engine variant exhaustively. Returns coverage counters,
/// or the first discipline violation found.
pub fn explore(kind: EngineKind) -> Result<ExplorationSummary, ExplorationError> {
    let sink = new_sink();
    let mut summary = ExplorationSummary {
        engine: kind,
        states: 0,
        probes: 0,
        probes_by_kind: BTreeMap::new(),
        max_resubmit_by_kind: BTreeMap::new(),
        stats: TraceStats::default(),
    };
    let bound = fresh_dp(kind).layout().resubmit_bound();
    for state in states_for(kind) {
        summary.states += 1;
        for (name, msg) in probes_for(state) {
            let mut dp = build_state(kind, state, &sink);
            let setup_trace = sink.lock().unwrap().take();
            let setup_stats =
                check_discipline(&setup_trace, bound).map_err(|violation| ExplorationError {
                    state: format!("{state:?}"),
                    probe: "setup",
                    violation,
                })?;
            dp.process_collect(msg, 0);
            let probe_trace = sink.lock().unwrap().take();
            let probe_stats =
                check_discipline(&probe_trace, bound).map_err(|violation| ExplorationError {
                    state: format!("{state:?}"),
                    probe: name,
                    violation,
                })?;
            summary.stats.merge(&setup_stats);
            summary.stats.merge(&probe_stats);
            summary.probes += 1;
            *summary.probes_by_kind.entry(name).or_insert(0) += 1;
            let deepest = summary.max_resubmit_by_kind.entry(name).or_insert(0);
            *deepest = (*deepest).max(probe_stats.max_resubmit_depth);
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fcfs_state_space_has_expected_shape() {
        let states = states_for(EngineKind::Fcfs);
        // 3 fullness × 2 protocols + server + 2 unknown.
        assert_eq!(states.len(), 9);
    }

    #[test]
    fn priority_state_space_has_expected_shape() {
        let states = states_for(EngineKind::Priority);
        // 3 fullness × normal + server + 2 unknown.
        assert_eq!(states.len(), 6);
    }

    #[test]
    fn probes_withhold_push_at_full_region() {
        let full = probes_for(ResidenceKind::Switch(Fullness::Full, Protocol::Normal));
        let nonempty_push = full.iter().any(|(n, m)| {
            *n == "Push" && matches!(m, NetLockMsg::Push { reqs, .. } if !reqs.is_empty())
        });
        assert!(!nonempty_push, "server must not push past advertised space");
        let empty_push = full.iter().any(|(n, _)| *n == "Push");
        assert!(empty_push, "the Push kind itself is still probed");
    }

    #[test]
    fn overflow_state_is_actually_in_overflow() {
        let sink = new_sink();
        let dp = build_state(
            EngineKind::Fcfs,
            ResidenceKind::Switch(Fullness::Empty, Protocol::Overflow),
            &sink,
        );
        assert!(dp.overflow_active(0));
    }
}
