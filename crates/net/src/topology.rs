//! Rack/zone datacenter topology for the flow-level network model.
//!
//! The topology is the two-tier fabric common to the ecosystems the paper
//! surveys (Fig. 1 storage/compute stacks, Fig. 4 gaming zones): every node
//! hangs off its rack switch through an *access link*, and every rack switch
//! reaches the (non-blocking) spine through an *uplink*. A transfer therefore
//! crosses at most four capacity-constrained links:
//!
//! ```text
//!   src ──access──▶ rack(src) ──uplink──▶ spine ──uplink──▶ rack(dst) ──access──▶ dst
//! ```
//!
//! Same-rack transfers touch only the two access links; same-node transfers
//! touch no link at all (they pay latency only). Faults are applied to
//! *nodes*: a partition cuts the node's access link, a gray failure scales
//! its capacity. Both are reference-counted so overlapping fault windows
//! compose and unwind exactly.

use mcs_simcore::time::SimDuration;

/// Index of a capacity-constrained link in the fabric.
pub type LinkId = u32;

/// A two-tier (node → rack → spine) topology with per-link capacities.
///
/// Link ids `0..nodes` are node access links; `nodes..nodes + racks` are
/// rack uplinks.
#[derive(Debug, Clone)]
pub struct NetTopology {
    nodes: u32,
    nodes_per_rack: u32,
    racks: u32,
    /// Nominal capacity per link, bytes/sec.
    base_capacity: Vec<f64>,
    /// Active partition count per link (capacity is zero while > 0).
    cuts: Vec<u32>,
    /// Active degradation factors per link (capacity is scaled by their
    /// product). Stored individually so overlapping windows unwind exactly,
    /// without float drift from multiply-then-divide.
    degrades: Vec<Vec<f64>>,
    same_rack_latency: SimDuration,
    cross_rack_latency: SimDuration,
}

impl NetTopology {
    /// Builds a fabric of `nodes` machines in racks of `nodes_per_rack`,
    /// with `node_bps` bytes/sec access links and `rack_bps` bytes/sec
    /// rack uplinks.
    ///
    /// # Panics
    /// Panics if `nodes` or `nodes_per_rack` is zero — a machine without an
    /// access link is unreachable by construction. [`Scenario`] validates
    /// these before building (`McsError::InvalidConfig`).
    ///
    /// [`Scenario`]: https://docs.rs/mcs-core
    pub fn new(
        nodes: u32,
        nodes_per_rack: u32,
        node_bps: f64,
        rack_bps: f64,
        same_rack_latency: SimDuration,
        cross_rack_latency: SimDuration,
    ) -> Self {
        assert!(nodes > 0, "topology needs at least one node");
        assert!(nodes_per_rack > 0, "racks need at least one node");
        let racks = nodes.div_ceil(nodes_per_rack);
        let mut base_capacity = vec![node_bps; nodes as usize];
        base_capacity.extend(std::iter::repeat_n(rack_bps, racks as usize));
        let links = base_capacity.len();
        NetTopology {
            nodes,
            nodes_per_rack,
            racks,
            base_capacity,
            cuts: vec![0; links],
            degrades: vec![Vec::new(); links],
            same_rack_latency,
            cross_rack_latency,
        }
    }

    /// Number of nodes (machines) in the fabric.
    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    /// Number of racks.
    pub fn racks(&self) -> u32 {
        self.racks
    }

    /// Total number of capacity-constrained links.
    pub fn links(&self) -> usize {
        self.base_capacity.len()
    }

    /// Rack containing `node`.
    pub fn rack_of(&self, node: u32) -> u32 {
        node / self.nodes_per_rack
    }

    fn access(&self, node: u32) -> LinkId {
        debug_assert!(node < self.nodes);
        node
    }

    fn uplink(&self, rack: u32) -> LinkId {
        self.nodes + rack
    }

    /// The capacity-constrained links crossed by a `src → dst` transfer.
    /// Empty when `src == dst`: node-local copies pay latency only.
    pub fn path(&self, src: u32, dst: u32) -> Vec<LinkId> {
        if src == dst {
            return Vec::new();
        }
        let (sr, dr) = (self.rack_of(src), self.rack_of(dst));
        if sr == dr {
            vec![self.access(src), self.access(dst)]
        } else {
            vec![self.access(src), self.uplink(sr), self.uplink(dr), self.access(dst)]
        }
    }

    /// Propagation latency of a `src → dst` transfer.
    pub fn latency(&self, src: u32, dst: u32) -> SimDuration {
        if src == dst {
            SimDuration::ZERO
        } else if self.rack_of(src) == self.rack_of(dst) {
            self.same_rack_latency
        } else {
            self.cross_rack_latency
        }
    }

    /// Nominal (fault-free) capacity of a link, bytes/sec.
    pub fn base_capacity(&self, link: LinkId) -> f64 {
        self.base_capacity[link as usize]
    }

    /// Current capacity of a link, bytes/sec: zero while cut, otherwise the
    /// nominal capacity scaled by every active degradation.
    pub fn effective_capacity(&self, link: LinkId) -> f64 {
        let i = link as usize;
        if self.cuts[i] > 0 {
            return 0.0;
        }
        self.degrades[i].iter().product::<f64>() * self.base_capacity[i]
    }

    /// Snapshot of every link's current capacity, in link-id order.
    pub fn effective_capacities(&self) -> Vec<f64> {
        (0..self.links()).map(|l| self.effective_capacity(l as LinkId)).collect()
    }

    /// The smallest nominal capacity along `path` (as built by
    /// [`NetTopology::path`]) — the uncontended, fault-free bottleneck used
    /// for ideal-transfer-time accounting. Infinite for an empty path.
    pub fn base_bottleneck(&self, path: &[LinkId]) -> f64 {
        path.iter().map(|&l| self.base_capacity(l)).fold(f64::INFINITY, f64::min)
    }

    /// Partitions `node` off the fabric: its access link carries nothing
    /// until a matching [`NetTopology::restore_node`].
    pub fn cut_node(&mut self, node: u32) {
        let l = self.access(node) as usize;
        self.cuts[l] += 1;
    }

    /// Lifts one partition of `node`. Reference-counted: the link heals only
    /// when every overlapping cut has been restored.
    pub fn restore_node(&mut self, node: u32) {
        let l = self.access(node) as usize;
        self.cuts[l] = self.cuts[l].saturating_sub(1);
    }

    /// Scales `node`'s access capacity by `factor` (a gray failure) until a
    /// matching [`NetTopology::undegrade_node`].
    pub fn degrade_node(&mut self, node: u32, factor: f64) {
        let l = self.access(node) as usize;
        self.degrades[l].push(factor.clamp(0.0, 1.0));
    }

    /// Removes one active degradation of `node` with this `factor`.
    pub fn undegrade_node(&mut self, node: u32, factor: f64) {
        let l = self.access(node) as usize;
        let clamped = factor.clamp(0.0, 1.0);
        if let Some(pos) = self.degrades[l].iter().position(|&f| f == clamped) {
            self.degrades[l].remove(pos);
        }
    }

    /// True when every node can reach every other: each access link and
    /// each uplink has positive, finite nominal capacity. (The two-tier
    /// fabric is connected by construction *except* through a dead link.)
    pub fn is_connected(&self) -> bool {
        self.base_capacity.iter().all(|&c| c.is_finite() && c > 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> NetTopology {
        NetTopology::new(
            8,
            4,
            100.0,
            400.0,
            SimDuration::from_micros(500),
            SimDuration::from_millis(2),
        )
    }

    #[test]
    fn link_layout_and_racks() {
        let t = topo();
        assert_eq!(t.racks(), 2);
        assert_eq!(t.links(), 10);
        assert_eq!(t.rack_of(3), 0);
        assert_eq!(t.rack_of(4), 1);
        assert_eq!(t.base_capacity(0), 100.0);
        assert_eq!(t.base_capacity(8), 400.0);
    }

    #[test]
    fn paths_by_locality() {
        let t = topo();
        assert!(t.path(2, 2).is_empty());
        assert_eq!(t.path(0, 3), vec![0, 3]);
        assert_eq!(t.path(1, 6), vec![1, 8, 9, 6]);
        assert_eq!(t.latency(2, 2), SimDuration::ZERO);
        assert_eq!(t.latency(0, 3), SimDuration::from_micros(500));
        assert_eq!(t.latency(1, 6), SimDuration::from_millis(2));
    }

    #[test]
    fn ragged_last_rack() {
        let t = NetTopology::new(
            5,
            4,
            10.0,
            40.0,
            SimDuration::ZERO,
            SimDuration::ZERO,
        );
        assert_eq!(t.racks(), 2);
        assert_eq!(t.rack_of(4), 1);
    }

    #[test]
    fn cuts_are_reference_counted() {
        let mut t = topo();
        t.cut_node(3);
        t.cut_node(3);
        assert_eq!(t.effective_capacity(3), 0.0);
        t.restore_node(3);
        assert_eq!(t.effective_capacity(3), 0.0);
        t.restore_node(3);
        assert_eq!(t.effective_capacity(3), 100.0);
        t.restore_node(3); // over-restore is a no-op
        assert_eq!(t.effective_capacity(3), 100.0);
    }

    #[test]
    fn degrades_compose_and_unwind_exactly() {
        let mut t = topo();
        t.degrade_node(1, 0.5);
        t.degrade_node(1, 0.25);
        assert!((t.effective_capacity(1) - 12.5).abs() < 1e-9);
        t.undegrade_node(1, 0.5);
        assert!((t.effective_capacity(1) - 25.0).abs() < 1e-9);
        t.undegrade_node(1, 0.25);
        assert_eq!(t.effective_capacity(1), 100.0);
    }

    #[test]
    fn ideal_bottleneck_ignores_faults() {
        let mut t = topo();
        t.cut_node(0);
        assert_eq!(t.base_bottleneck(&t.path(0, 5)), 100.0);
        assert_eq!(t.base_bottleneck(&t.path(0, 0)), f64::INFINITY);
    }

    #[test]
    fn connectivity_requires_live_links() {
        assert!(topo().is_connected());
        let dead = NetTopology::new(
            4,
            2,
            0.0,
            40.0,
            SimDuration::ZERO,
            SimDuration::ZERO,
        );
        assert!(!dead.is_connected());
    }
}
