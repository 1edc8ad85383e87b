//! Link/topology model.
//!
//! The rack network is modeled as point-to-point links with a fixed one-way
//! propagation + serialization delay and an optional loss probability. The
//! lock switch is itself a node, so "client → server through the ToR" is
//! expressed by wiring client→switch and switch→server links; the model does
//! not hide any hop.

use std::collections::HashMap;

use crate::node::NodeId;
use crate::time::SimDuration;

/// Gilbert–Elliott two-state burst-loss parameters. The channel flips
/// between a *good* and a *bad* state per packet; each state has its own
/// drop probability, so losses cluster into bursts instead of the
/// memoryless Bernoulli pattern of [`LinkConfig::loss`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GeParams {
    /// Probability of transitioning good → bad on a packet.
    pub to_bad: f64,
    /// Probability of transitioning bad → good on a packet.
    pub to_good: f64,
    /// Drop probability while in the good state (usually ~0).
    pub loss_good: f64,
    /// Drop probability while in the bad state (usually near 1).
    pub loss_bad: f64,
}

impl GeParams {
    /// A bursty channel: mostly clean, but bursts of `loss_bad` losses
    /// with mean burst length `1/to_good` packets.
    pub fn bursty(to_bad: f64, to_good: f64, loss_bad: f64) -> GeParams {
        GeParams {
            to_bad,
            to_good,
            loss_good: 0.0,
            loss_bad,
        }
    }
}

/// Fault-injection parameters of a link, all off by default. Kept
/// separate from the base delay/loss so the common healthy-link path
/// can skip fault processing entirely.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct LinkFaults {
    /// Probability that a packet is delivered twice (default 0). The
    /// duplicate takes an independent jitter draw, so it may arrive
    /// before or after the original.
    pub duplicate: f64,
    /// Bound of uniform extra delay added per packet (default 0).
    /// Non-zero jitter reorders packets that were sent close together.
    pub jitter: SimDuration,
    /// Optional Gilbert–Elliott burst-loss channel (overrides the plain
    /// Bernoulli `loss` when set).
    pub ge: Option<GeParams>,
}

impl LinkFaults {
    /// No faults at all (the default).
    pub const NONE: LinkFaults = LinkFaults {
        duplicate: 0.0,
        jitter: SimDuration(0),
        ge: None,
    };

    /// Whether any fault processing is required for this link.
    pub fn any(&self) -> bool {
        self.duplicate > 0.0 || self.jitter.as_nanos() > 0 || self.ge.is_some()
    }
}

/// Per-link parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkConfig {
    /// One-way delay applied to every packet on the link.
    pub delay: SimDuration,
    /// Probability that a packet is dropped in flight (default 0).
    pub loss: f64,
    /// Fault-injection behaviour (burst loss, duplication, jitter).
    pub faults: LinkFaults,
}

impl LinkConfig {
    /// A lossless link with the given one-way delay.
    pub fn with_delay(delay: SimDuration) -> LinkConfig {
        LinkConfig {
            delay,
            loss: 0.0,
            faults: LinkFaults::NONE,
        }
    }

    /// A copy of this link with Bernoulli loss probability `loss`.
    pub fn with_loss(self, loss: f64) -> LinkConfig {
        LinkConfig { loss, ..self }
    }

    /// A copy of this link with the given fault parameters.
    pub fn with_faults(self, faults: LinkFaults) -> LinkConfig {
        LinkConfig { faults, ..self }
    }
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            // Intra-rack one-way hop: ~1.2 us (cable + NIC + switch port).
            delay: SimDuration::from_nanos(1_200),
            loss: 0.0,
            faults: LinkFaults::NONE,
        }
    }
}

/// The set of links. Lookups fall back to the global default, so dense
/// racks don't need O(n^2) configuration.
///
/// Every mutator bumps a version counter; the simulator uses it to
/// invalidate its dense resolved `(src, dst)` table (see
/// [`Topology::resolve_dense`]) so overrides are looked up once per
/// mutation, not once per transmitted packet.
#[derive(Clone, Debug, Default)]
pub struct Topology {
    default: LinkConfig,
    per_pair: HashMap<(NodeId, NodeId), LinkConfig>,
    version: u64,
}

impl Topology {
    /// A topology where every link uses `default`.
    pub fn new(default: LinkConfig) -> Topology {
        Topology {
            default,
            per_pair: HashMap::new(),
            version: 0,
        }
    }

    /// Override a specific directed link.
    pub fn set_link(&mut self, src: NodeId, dst: NodeId, cfg: LinkConfig) {
        self.per_pair.insert((src, dst), cfg);
        self.version += 1;
    }

    /// Remove a directed-link override, restoring the global default.
    /// Used by fault plans to end a link fault episode.
    pub fn clear_link(&mut self, src: NodeId, dst: NodeId) {
        self.per_pair.remove(&(src, dst));
        self.version += 1;
    }

    /// The configuration used for a packet from `src` to `dst`.
    pub fn link(&self, src: NodeId, dst: NodeId) -> LinkConfig {
        self.per_pair
            .get(&(src, dst))
            .copied()
            .unwrap_or(self.default)
    }

    /// Replace the global default link.
    pub fn set_default(&mut self, cfg: LinkConfig) {
        self.default = cfg;
        self.version += 1;
    }

    /// Monotone counter bumped by every mutator. Two equal versions on
    /// the same instance mean every `link()` answer is unchanged.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Resolve every link of an `n`-node rack into a row-major `n * n`
    /// table (`table[src * n + dst]`), reusing the caller's buffer. One
    /// indexed load then answers any `link()` query for in-range ids.
    pub fn resolve_dense(&self, n: usize, table: &mut Vec<LinkConfig>) {
        table.clear();
        table.resize(n * n, self.default);
        for (&(src, dst), cfg) in &self.per_pair {
            let (s, d) = (src.index(), dst.index());
            if s < n && d < n {
                table[s * n + d] = *cfg;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_precedence() {
        let mut t = Topology::new(LinkConfig::with_delay(SimDuration(100)));
        t.set_link(
            NodeId(1),
            NodeId(2),
            LinkConfig::with_delay(SimDuration(300)),
        );

        // pair overrides default, for that direction only
        assert_eq!(t.link(NodeId(1), NodeId(2)).delay, SimDuration(300));
        assert_eq!(t.link(NodeId(2), NodeId(1)).delay, SimDuration(100));
        assert_eq!(t.link(NodeId(1), NodeId(3)).delay, SimDuration(100));
    }

    #[test]
    fn default_is_intra_rack_scale() {
        let t = Topology::default();
        let link = t.link(NodeId(0), NodeId(1));
        assert!(link.delay.as_nanos() > 0 && link.delay.as_nanos() < 10_000);
        assert_eq!(link.loss, 0.0);
    }

    #[test]
    fn set_default_applies() {
        let mut t = Topology::default();
        t.set_default(LinkConfig::with_delay(SimDuration(5)).with_loss(0.5));
        assert_eq!(t.link(NodeId(9), NodeId(8)).delay, SimDuration(5));
        assert_eq!(t.link(NodeId(9), NodeId(8)).loss, 0.5);
    }

    #[test]
    fn clear_link_restores_fallback() {
        let mut t = Topology::new(LinkConfig::with_delay(SimDuration(100)));
        t.set_link(
            NodeId(1),
            NodeId(2),
            LinkConfig::with_delay(SimDuration(300)),
        );
        assert_eq!(t.link(NodeId(1), NodeId(2)).delay, SimDuration(300));
        t.clear_link(NodeId(1), NodeId(2));
        assert_eq!(t.link(NodeId(1), NodeId(2)).delay, SimDuration(100));
    }

    #[test]
    fn dense_resolution_matches_fallback_chain() {
        let mut t = Topology::new(LinkConfig::with_delay(SimDuration(100)));
        t.set_link(
            NodeId(1),
            NodeId(2),
            LinkConfig::with_delay(SimDuration(300)),
        );
        // Out-of-range override must not corrupt (or panic on) a
        // smaller dense table.
        t.set_link(
            NodeId(9),
            NodeId(0),
            LinkConfig::with_delay(SimDuration(999)),
        );
        let n = 4;
        let mut table = Vec::new();
        t.resolve_dense(n, &mut table);
        assert_eq!(table.len(), n * n);
        for s in 0..n {
            for d in 0..n {
                assert_eq!(
                    table[s * n + d],
                    t.link(NodeId(s as u32), NodeId(d as u32)),
                    "dense table diverges from link() at ({s}, {d})"
                );
            }
        }
    }

    #[test]
    fn version_bumps_on_every_mutator() {
        let mut t = Topology::default();
        let v0 = t.version();
        t.set_default(LinkConfig::default());
        t.set_link(NodeId(0), NodeId(1), LinkConfig::default());
        t.clear_link(NodeId(0), NodeId(1));
        assert_eq!(t.version(), v0 + 3);
        // Reads don't bump.
        let _ = t.link(NodeId(0), NodeId(1));
        assert_eq!(t.version(), v0 + 3);
    }

    #[test]
    fn faults_default_off() {
        let cfg = LinkConfig::default();
        assert!(!cfg.faults.any());
        let bursty = cfg.with_faults(LinkFaults {
            ge: Some(GeParams::bursty(0.01, 0.2, 0.9)),
            ..LinkFaults::NONE
        });
        assert!(bursty.faults.any());
        assert_eq!(bursty.delay, cfg.delay);
    }
}
