//! Chaos fault-injection for NetLock racks.
//!
//! Builds seeded, fully deterministic [`FaultPlan`]s over an assembled
//! [`crate::rack::Rack`] — loss bursts, duplication, reordering jitter,
//! link flaps, switch reboot, server crash-restart, client crashes — and
//! drives the simulator through them while a [`Oracle`] watches every
//! packet. A chaos run is a pure function of `(rack spec, chaos seed)`:
//! replaying the same pair reproduces the same fault schedule, the same
//! packet trace and the same byte-identical audit log.
//!
//! Fault scoping mirrors the paper's failure model (§4.5): the network
//! between clients and the rack misbehaves, and whole machines fail and
//! recover, but the in-rack switch↔server fabric is reliable — NetLock's
//! overflow and forwarding protocols assume lossless in-rack delivery
//! the way the Tofino's internal paths do, so only client↔switch links
//! receive loss/duplication/jitter.
//!
//! A switch reboot and a server restart are a plain `FailNode` and
//! `ReviveNode`: the revived node wipes and rebuilds itself in
//! `on_revive` (the switch reloads its allocation, the server tells the
//! switch its q2 buffers are gone), and each oracle declares an amnesia
//! point when it sees the revival. So [`run_chaos`] just runs the plan,
//! for a lone rack, a partitioned `RackCluster` and the failover
//! scenario alike.

use std::sync::{Arc, Mutex};

use netlock_proto::NetLockMsg;
use netlock_sim::{
    FaultAction, FaultPlan, GeParams, LinkConfig, LinkFaults, NodeId, SimDuration, SimRng, SimTime,
    Simulator,
};

use crate::oracle::{oracle_tap, Oracle, OracleConfig};
use crate::rack::{ClientKind, RackNodes};

/// Tuning for the random plan generator.
#[derive(Clone, Copy, Debug)]
pub struct ChaosPlanConfig {
    /// No faults before this instant (lets the rack reach steady state).
    pub start: SimDuration,
    /// Last instant a fault may *end*; everything after is a fault-free
    /// tail so leases expire and retries drain before the oracle's
    /// end-of-run checks.
    pub settle_by: SimDuration,
    /// Fault episodes to draw.
    pub episodes: usize,
    /// Longest single episode.
    pub max_episode: SimDuration,
    /// Minimum outage of the one switch fail → reboot cycle a plan may
    /// hold. Must exceed the rack's lease: the paper's §4.5 failover
    /// serves no requests for one lease so every stranded pre-failure
    /// holder expires before the replacement switch grants anew; the
    /// simulator models that grace as outage length.
    pub switch_outage_min: SimDuration,
    /// Allow (permanent) client crashes.
    pub client_crash: bool,
}

impl Default for ChaosPlanConfig {
    fn default() -> Self {
        ChaosPlanConfig {
            start: SimDuration::from_millis(2),
            settle_by: SimDuration::from_millis(40),
            episodes: 6,
            max_episode: SimDuration::from_millis(4),
            switch_outage_min: SimDuration::from_millis(12),
            client_crash: true,
        }
    }
}

/// Where the rack's roles live, for fault targeting.
#[derive(Clone, Debug)]
pub struct RackRoles {
    /// The lock switch.
    pub switch: NodeId,
    /// Lock servers, by directory index.
    pub servers: Vec<NodeId>,
    /// Individual client nodes (crashable).
    pub clients: Vec<NodeId>,
    /// Aggregate client-population nodes. Their links misbehave like
    /// any client's, but the generator never crashes them: one
    /// `FailNode` would atomically kill ~100K virtual clients — a
    /// correlated failure no machine-granular fault model produces —
    /// and the oracle's dead-client exemptions would then excuse every
    /// in-flight request of the whole population.
    pub aggregates: Vec<NodeId>,
}

impl RackNodes {
    /// This rack's fault-targeting roles, split by client kind
    /// (aggregate population nodes get link faults but never crash).
    pub fn roles(&self) -> RackRoles {
        let mut clients = Vec::new();
        let mut aggregates = Vec::new();
        for &(id, kind) in &self.clients {
            match kind {
                ClientKind::Population => aggregates.push(id),
                ClientKind::Micro | ClientKind::Txn => clients.push(id),
            }
        }
        RackRoles {
            switch: self.switch,
            servers: self.lock_servers.clone(),
            clients,
            aggregates,
        }
    }
}

fn episode_window(
    rng: &mut SimRng,
    cfg: &ChaosPlanConfig,
    min_len_ns: u64,
) -> Option<(SimTime, SimTime)> {
    let start = cfg.start.as_nanos();
    let end = cfg.settle_by.as_nanos();
    if end <= start + min_len_ns {
        return None;
    }
    let at = start + rng.next_below(end - start - min_len_ns);
    let len = min_len_ns + rng.next_below(cfg.max_episode.as_nanos().max(min_len_ns + 1));
    let fin = (at + len).min(end);
    Some((SimTime(at), SimTime(fin)))
}

/// Pick a link-fault victim: any client, individual or aggregate. When
/// `aggregates` is empty the draw sequence is identical to the
/// pre-aggregate generator, so existing seeded plans stay byte-stable.
fn pick_endpoint(rng: &mut SimRng, roles: &RackRoles) -> NodeId {
    let n = roles.clients.len() + roles.aggregates.len();
    let i = rng.index(n);
    if i < roles.clients.len() {
        roles.clients[i]
    } else {
        roles.aggregates[i - roles.clients.len()]
    }
}

/// Pick a faulted client↔switch link direction.
fn pick_link(rng: &mut SimRng, roles: &RackRoles) -> (NodeId, NodeId) {
    let client = pick_endpoint(rng, roles);
    if rng.chance(0.5) {
        (client, roles.switch)
    } else {
        (roles.switch, client)
    }
}

/// Generate a seeded fault plan for a rack. Identical
/// `(seed, cfg, roles)` always yield the identical plan.
pub fn generate_plan(seed: u64, roles: &RackRoles, cfg: &ChaosPlanConfig) -> FaultPlan {
    let mut rng = SimRng::new(seed ^ 0xC4A0_5EED);
    let mut plan = FaultPlan::new();
    let mut switch_rebooted = false;
    // At most one client crashes per plan: crashes are permanent (no
    // client-side recovery protocol exists) and losing too many clients
    // starves the closed loops the scenarios assert on.
    let mut client_crashed = false;
    let base_link = LinkConfig::default();

    for _ in 0..cfg.episodes {
        match rng.next_below(8) {
            // Burst loss on a client↔switch link (Gilbert–Elliott).
            0 | 1 => {
                let Some((at, fin)) = episode_window(&mut rng, cfg, 100_000) else {
                    continue;
                };
                let (src, dst) = pick_link(&mut rng, roles);
                let to_bad = 0.02 + rng.unit() * 0.1;
                let to_good = 0.1 + rng.unit() * 0.3;
                let faulty = base_link.with_faults(LinkFaults {
                    ge: Some(GeParams::bursty(to_bad, to_good, 1.0)),
                    ..LinkFaults::NONE
                });
                plan.push(
                    at,
                    FaultAction::SetLink {
                        src,
                        dst,
                        cfg: faulty,
                    },
                );
                plan.push(fin, FaultAction::ClearLink { src, dst });
            }
            // Duplication episode.
            2 => {
                let Some((at, fin)) = episode_window(&mut rng, cfg, 100_000) else {
                    continue;
                };
                let (src, dst) = pick_link(&mut rng, roles);
                let dup = 0.1 + rng.unit() * 0.9;
                let faulty = base_link.with_faults(LinkFaults {
                    duplicate: dup,
                    ..LinkFaults::NONE
                });
                plan.push(
                    at,
                    FaultAction::SetLink {
                        src,
                        dst,
                        cfg: faulty,
                    },
                );
                plan.push(fin, FaultAction::ClearLink { src, dst });
            }
            // Reordering jitter episode.
            3 => {
                let Some((at, fin)) = episode_window(&mut rng, cfg, 100_000) else {
                    continue;
                };
                let (src, dst) = pick_link(&mut rng, roles);
                let jitter = SimDuration::from_nanos(1_000 + rng.next_below(20_000));
                let faulty = base_link.with_faults(LinkFaults {
                    jitter,
                    ..LinkFaults::NONE
                });
                plan.push(
                    at,
                    FaultAction::SetLink {
                        src,
                        dst,
                        cfg: faulty,
                    },
                );
                plan.push(fin, FaultAction::ClearLink { src, dst });
            }
            // Hard link flap: both directions black-holed.
            4 => {
                let Some((at, fin)) = episode_window(&mut rng, cfg, 50_000) else {
                    continue;
                };
                let client = pick_endpoint(&mut rng, roles);
                let dead = base_link.with_loss(1.0);
                plan.push(
                    at,
                    FaultAction::SetLink {
                        src: client,
                        dst: roles.switch,
                        cfg: dead,
                    },
                );
                plan.push(
                    at,
                    FaultAction::SetLink {
                        src: roles.switch,
                        dst: client,
                        cfg: dead,
                    },
                );
                plan.push(
                    fin,
                    FaultAction::ClearLink {
                        src: client,
                        dst: roles.switch,
                    },
                );
                plan.push(
                    fin,
                    FaultAction::ClearLink {
                        src: roles.switch,
                        dst: client,
                    },
                );
            }
            // Switch fail → reboot → reprogram (at most once).
            5 if !switch_rebooted => {
                let min_outage = cfg.switch_outage_min.as_nanos().max(500_000);
                let Some((at, fin)) = episode_window(&mut rng, cfg, min_outage) else {
                    continue;
                };
                switch_rebooted = true;
                plan.push(at, FaultAction::FailNode(roles.switch));
                plan.push(fin, FaultAction::ReviveNode(roles.switch));
            }
            // Server crash → restart with state loss.
            6 if !roles.servers.is_empty() => {
                let Some((at, fin)) = episode_window(&mut rng, cfg, 200_000) else {
                    continue;
                };
                let idx = rng.index(roles.servers.len());
                plan.push(at, FaultAction::FailNode(roles.servers[idx]));
                plan.push(fin, FaultAction::ReviveNode(roles.servers[idx]));
            }
            // Client crash, permanent.
            7 if cfg.client_crash && !client_crashed && roles.clients.len() > 1 => {
                let Some((at, _fin)) = episode_window(&mut rng, cfg, 0) else {
                    continue;
                };
                client_crashed = true;
                let client = roles.clients[rng.index(roles.clients.len())];
                plan.push(at, FaultAction::FailNode(client));
            }
            // Disallowed pick (e.g. second switch reboot): draw again on
            // the next episode; skipping keeps the sequence seeded.
            _ => {}
        }
    }
    plan
}

/// Attach one fresh [`Oracle`] per rack, each to the tap of the logical
/// process that rack owns: pass `[rack.nodes]` for a standalone
/// [`crate::rack::Rack`], or every rack of a partitioned
/// [`crate::cluster::RackCluster`] (an unpartitioned one-rack cluster
/// is one LP too). Each oracle observes exactly its rack's deliveries
/// and timers, in an order independent of the worker count. Every
/// client already added is registered; add clients *before* calling
/// this.
pub fn attach_rack_oracles(
    sim: &mut Simulator<NetLockMsg>,
    racks: &[RackNodes],
    cfg: &OracleConfig,
) -> Vec<Arc<Mutex<Oracle>>> {
    assert_eq!(
        sim.partitions(),
        racks.len(),
        "attach oracles after partition(): one LP tap per rack"
    );
    let mut handles = Vec::with_capacity(racks.len());
    for (lp, rack) in racks.iter().enumerate() {
        let (oracle, tap) = oracle_tap(*cfg, rack.client_ids());
        sim.set_lp_tap(lp, tap);
        handles.push(oracle);
    }
    handles
}

/// The one chaos driver, for every rack shape: drive `sim` to `until`
/// and finish every oracle there.
pub fn run_chaos(sim: &mut Simulator<NetLockMsg>, until: SimTime, oracles: &[Arc<Mutex<Oracle>>]) {
    sim.run_until(until);
    for oracle in oracles {
        oracle.lock().unwrap().finish(until.as_nanos());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roles() -> RackRoles {
        RackRoles {
            switch: NodeId(2),
            servers: vec![NodeId(0), NodeId(1)],
            clients: vec![NodeId(3), NodeId(4), NodeId(5)],
            aggregates: vec![],
        }
    }

    fn roles_with_aggregates() -> RackRoles {
        RackRoles {
            aggregates: vec![NodeId(6), NodeId(7)],
            ..roles()
        }
    }

    #[test]
    fn plan_generation_is_deterministic() {
        let cfg = ChaosPlanConfig::default();
        let a = generate_plan(7, &roles(), &cfg);
        let b = generate_plan(7, &roles(), &cfg);
        assert_eq!(a.events(), b.events());
        let c = generate_plan(8, &roles(), &cfg);
        assert_ne!(a.events(), c.events());
    }

    #[test]
    fn plan_respects_settle_window() {
        let cfg = ChaosPlanConfig {
            episodes: 32,
            ..Default::default()
        };
        let plan = generate_plan(3, &roles(), &cfg);
        assert!(!plan.is_empty());
        for ev in plan.events() {
            assert!(ev.at.as_nanos() >= cfg.start.as_nanos());
            assert!(ev.at.as_nanos() <= cfg.settle_by.as_nanos());
        }
    }

    #[test]
    fn faults_never_touch_server_links_or_kill_switch_twice() {
        let cfg = ChaosPlanConfig {
            episodes: 64,
            ..Default::default()
        };
        let r = roles();
        let plan = generate_plan(11, &r, &cfg);
        let mut switch_fails = 0;
        for ev in plan.events() {
            match ev.action {
                FaultAction::SetLink { src, dst, .. } | FaultAction::ClearLink { src, dst } => {
                    let touches_client = r.clients.contains(&src) || r.clients.contains(&dst);
                    assert!(touches_client, "faulted a rack-internal link: {ev:?}");
                }
                FaultAction::FailNode(n) if n == r.switch => switch_fails += 1,
                _ => {}
            }
        }
        assert!(switch_fails <= 1);
    }

    #[test]
    fn empty_aggregates_leave_plans_byte_stable() {
        let cfg = ChaosPlanConfig {
            episodes: 64,
            ..Default::default()
        };
        let a = generate_plan(21, &roles(), &cfg);
        let b = generate_plan(21, &roles_with_aggregates(), &cfg);
        // Same seed, aggregates present: link faults may now pick them,
        // so the plans differ...
        assert_ne!(a.events(), b.events());
        // ...but an aggregate-free RackRoles reproduces the exact
        // pre-aggregate schedule (regression guard for old seeds).
        let c = generate_plan(21, &roles(), &cfg);
        assert_eq!(a.events(), c.events());
    }

    #[test]
    fn aggregates_get_link_faults_but_never_crash() {
        let cfg = ChaosPlanConfig {
            episodes: 256,
            settle_by: SimDuration::from_millis(400),
            ..Default::default()
        };
        let r = roles_with_aggregates();
        let mut aggregate_link_faults = 0;
        for seed in 0..8 {
            let plan = generate_plan(seed, &r, &cfg);
            for ev in plan.events() {
                match ev.action {
                    FaultAction::FailNode(n) => {
                        assert!(
                            !r.aggregates.contains(&n),
                            "crashed an aggregate population node: {ev:?}"
                        );
                    }
                    FaultAction::SetLink { src, dst, .. }
                        if r.aggregates.contains(&src) || r.aggregates.contains(&dst) =>
                    {
                        aggregate_link_faults += 1;
                    }
                    _ => {}
                }
            }
        }
        assert!(
            aggregate_link_faults > 0,
            "aggregates must still see link faults"
        );
    }
}
