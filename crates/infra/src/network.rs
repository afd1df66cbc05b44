//! Inter-datacenter network topology.
//!
//! Challenge C10 (geo-distributed, federated, multi-DC operation) needs a
//! network model: sites connected by links with latency and bandwidth,
//! shortest-latency routing, and transfer-time estimation for wide-area
//! analytics and offloading.
//!
//! This is not a second fabric beside `mcs-net`. [`Topology`] is a static
//! estimator: it answers "how long would `bytes` take from site `a` to
//! site `b` on an idle shortest-latency path", which is all the fluid
//! `mcs-rms::multicluster::Federation` router asks when it weighs an
//! offload. It holds no flows, shares no bandwidth and keeps no time.
//! `mcs-net` zones would model contention the router never reads, and
//! `mcs-rms` does not depend on `mcs-net` (which sits beside it, above
//! `mcs-simcore` only), so the federation keeps this estimator.

use crate::cluster::{DatacenterId, GeoLocation};
use mcs_simcore::time::SimDuration;
use std::collections::BinaryHeap;

/// A directed link between two sites.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// One-way propagation latency.
    pub latency: SimDuration,
    /// Usable bandwidth, Gbit/s.
    pub bandwidth_gbps: f64,
}

impl Link {
    /// A wide-area link whose latency follows from great-circle distance:
    /// light in fibre travels at ~200 000 km/s and real routes are ~1.6×
    /// longer than the geodesic.
    pub fn wan_between(a: GeoLocation, b: GeoLocation, bandwidth_gbps: f64) -> Link {
        let km = a.distance_km(&b) * 1.6;
        let secs = km / 200_000.0;
        Link { latency: SimDuration::from_secs_f64(secs.max(0.000_1)), bandwidth_gbps }
    }
}

/// A network of datacenters with latency/bandwidth links and
/// shortest-latency routing.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    /// adjacency\[a\] = list of (b, link)
    adjacency: Vec<Vec<(u32, Link)>>,
}

impl Topology {
    /// An empty topology over `sites` datacenters (ids `0..sites`).
    pub fn new(sites: u32) -> Self {
        Topology { adjacency: vec![Vec::new(); sites as usize] }
    }

    /// Number of sites.
    pub fn site_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Adds a bidirectional link.
    ///
    /// # Panics
    /// Panics if either site is unknown.
    pub fn connect(&mut self, a: DatacenterId, b: DatacenterId, link: Link) {
        assert!((a.0 as usize) < self.adjacency.len(), "unknown site {a}");
        assert!((b.0 as usize) < self.adjacency.len(), "unknown site {b}");
        self.adjacency[a.0 as usize].push((b.0, link));
        self.adjacency[b.0 as usize].push((a.0, link));
    }

    /// Shortest-latency path from `from` to `to` (Dijkstra). Returns the
    /// total latency and the bottleneck bandwidth along the path, or `None`
    /// when unreachable.
    pub fn route(&self, from: DatacenterId, to: DatacenterId) -> Option<Route> {
        if from == to {
            return Some(Route {
                latency: SimDuration::ZERO,
                bottleneck_gbps: f64::INFINITY,
                hops: 0,
            });
        }
        let n = self.adjacency.len();
        if from.0 as usize >= n || to.0 as usize >= n {
            return None;
        }
        #[derive(PartialEq, Eq)]
        struct Entry {
            cost: u64,
            node: u32,
        }
        impl Ord for Entry {
            fn cmp(&self, o: &Self) -> std::cmp::Ordering {
                o.cost.cmp(&self.cost).then_with(|| o.node.cmp(&self.node))
            }
        }
        impl PartialOrd for Entry {
            fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(o))
            }
        }
        let mut dist = vec![u64::MAX; n];
        let mut best_bw = vec![0.0f64; n];
        let mut hops = vec![0u32; n];
        let mut heap = BinaryHeap::new();
        dist[from.0 as usize] = 0;
        best_bw[from.0 as usize] = f64::INFINITY;
        heap.push(Entry { cost: 0, node: from.0 });
        while let Some(Entry { cost, node }) = heap.pop() {
            if cost > dist[node as usize] {
                continue;
            }
            if node == to.0 {
                return Some(Route {
                    latency: SimDuration::from_nanos(cost),
                    bottleneck_gbps: best_bw[node as usize],
                    hops: hops[node as usize],
                });
            }
            for &(next, link) in &self.adjacency[node as usize] {
                let ncost = cost + link.latency.as_nanos();
                if ncost < dist[next as usize] {
                    dist[next as usize] = ncost;
                    best_bw[next as usize] = best_bw[node as usize].min(link.bandwidth_gbps);
                    hops[next as usize] = hops[node as usize] + 1;
                    heap.push(Entry { cost: ncost, node: next });
                }
            }
        }
        None
    }

    /// End-to-end time to move `bytes` from `from` to `to`: path latency plus
    /// serialization at the bottleneck bandwidth. `None` when unreachable.
    pub fn transfer_time(&self, from: DatacenterId, to: DatacenterId, bytes: u64) -> Option<SimDuration> {
        let route = self.route(from, to)?;
        let serialization = if route.bottleneck_gbps.is_finite() && route.bottleneck_gbps > 0.0 {
            SimDuration::from_secs_f64(bytes as f64 * 8.0 / (route.bottleneck_gbps * 1e9))
        } else {
            SimDuration::ZERO
        };
        Some(route.latency + serialization)
    }
}

/// The result of routing between two sites.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Route {
    /// Sum of link latencies along the chosen path.
    pub latency: SimDuration,
    /// Minimum bandwidth along the path, Gbit/s.
    pub bottleneck_gbps: f64,
    /// Number of links traversed.
    pub hops: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    fn triangle() -> Topology {
        // 0 --10ms/10G-- 1 --10ms/10G-- 2, plus slow direct 0--2 (50ms/1G)
        let mut t = Topology::new(3);
        t.connect(DatacenterId(0), DatacenterId(1), Link { latency: ms(10), bandwidth_gbps: 10.0 });
        t.connect(DatacenterId(1), DatacenterId(2), Link { latency: ms(10), bandwidth_gbps: 10.0 });
        t.connect(DatacenterId(0), DatacenterId(2), Link { latency: ms(50), bandwidth_gbps: 1.0 });
        t
    }

    #[test]
    fn dijkstra_prefers_low_latency_path() {
        let t = triangle();
        let r = t.route(DatacenterId(0), DatacenterId(2)).unwrap();
        assert_eq!(r.latency, ms(20));
        assert_eq!(r.hops, 2);
        assert_eq!(r.bottleneck_gbps, 10.0);
    }

    #[test]
    fn self_route_is_free() {
        let t = triangle();
        let r = t.route(DatacenterId(1), DatacenterId(1)).unwrap();
        assert_eq!(r.latency, SimDuration::ZERO);
        assert_eq!(r.hops, 0);
    }

    #[test]
    fn unreachable_is_none() {
        let t = Topology::new(2); // no links
        assert!(t.route(DatacenterId(0), DatacenterId(1)).is_none());
        assert!(t.transfer_time(DatacenterId(0), DatacenterId(1), 1).is_none());
    }

    #[test]
    fn transfer_time_includes_serialization() {
        let t = triangle();
        // 1 GiB over the 10 Gbps path: 2^30 * 8 / 10^10 s ≈ 0.859 s + 20 ms.
        let dt = t.transfer_time(DatacenterId(0), DatacenterId(2), 1 << 30).unwrap();
        let secs = dt.as_secs_f64();
        assert!((secs - (0.8589934592 + 0.020)).abs() < 1e-6, "secs = {secs}");
    }

    #[test]
    fn wan_link_latency_scales_with_distance() {
        let ams = GeoLocation { lat_deg: 52.37, lon_deg: 4.89 };
        let nyc = GeoLocation { lat_deg: 40.71, lon_deg: -74.01 };
        let fra = GeoLocation { lat_deg: 50.11, lon_deg: 8.68 };
        let far = Link::wan_between(ams, nyc, 100.0);
        let near = Link::wan_between(ams, fra, 100.0);
        assert!(far.latency > near.latency);
        // Transatlantic one-way should be tens of milliseconds.
        let ms_far = far.latency.as_secs_f64() * 1e3;
        assert!((30.0..80.0).contains(&ms_far), "ms = {ms_far}");
    }
}
