//! Max-min fair-share bandwidth allocation (progressive filling).
//!
//! Given the set of active flows (each a list of links it crosses) and the
//! current per-link capacities, the allocator answers: *what rate does each
//! flow get right now?* It implements the classic water-filling scheme from
//! the flow-level simulation tradition (SimGrid lineage, PAPERS.md): find
//! the most contended link, freeze every flow crossing it at that link's
//! fair share, subtract what they consume everywhere, repeat.
//!
//! The computation is pure and deterministic: links are scanned in id order
//! and ties break toward the lowest id, so equal inputs produce bit-equal
//! rates — the property the scenario determinism gates rely on.

use crate::topology::LinkId;

/// Tolerance for "capacity exhausted" comparisons, bytes/sec.
const CAP_EPS: f64 = 1e-9;

/// Computes max-min fair rates (bytes/sec) for `flows`, where each flow is
/// the list of links it crosses and `capacity[l]` is the current capacity of
/// link `l`. Flows crossing a zero-capacity (cut) link get rate `0.0`.
///
/// Every flow must cross at least one link; node-local transfers never reach
/// the allocator. This one-shot form builds a fresh solver per call; the
/// network actor keeps one that reuses its buffers.
pub fn max_min_rates(flows: &[Vec<LinkId>], capacity: &[f64]) -> Vec<f64> {
    MaxMin::default().solve(flows.len(), |i| &flows[i], capacity).to_vec()
}

/// The max-min solver with its scratch buffers, so that a re-solve after
/// the first allocates nothing. [`NetActor`](crate::actor::NetActor) keeps
/// one for its whole run.
#[derive(Default)]
pub(crate) struct MaxMin {
    remaining: Vec<f64>,
    load: Vec<u32>,
    frozen: Vec<bool>,
    rates: Vec<f64>,
}

impl MaxMin {
    /// Solves for `n` flows, where `path(i)` is the list of links flow `i`
    /// crosses, and returns their rates in flow order; see
    /// [`max_min_rates`] for the contract.
    pub(crate) fn solve<'p>(
        &mut self,
        n: usize,
        path: impl Fn(usize) -> &'p [LinkId],
        capacity: &[f64],
    ) -> &[f64] {
        self.rates.clear();
        self.rates.resize(n, 0.0);
        if n == 0 {
            return &self.rates;
        }
        let (remaining, load, frozen, rates) =
            (&mut self.remaining, &mut self.load, &mut self.frozen, &mut self.rates);
        remaining.clear();
        remaining.extend_from_slice(capacity);
        load.clear();
        load.resize(capacity.len(), 0);
        for i in 0..n {
            let p = path(i);
            debug_assert!(!p.is_empty(), "node-local flows must not be allocated");
            for &l in p {
                load[l as usize] += 1;
            }
        }
        frozen.clear();
        frozen.resize(n, false);
        let mut unfrozen = n;

        while unfrozen > 0 {
            // The bottleneck: the loaded link offering the smallest fair share.
            let mut bottleneck = usize::MAX;
            let mut share = f64::INFINITY;
            for (l, &c) in load.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                let s = (remaining[l].max(0.0)) / f64::from(c);
                if s < share {
                    share = s;
                    bottleneck = l;
                }
            }
            if bottleneck == usize::MAX {
                break; // no loaded links left (all paths drained)
            }
            // Freeze every unfrozen flow crossing the bottleneck at `share`
            // and charge its consumption to every link it touches.
            for i in 0..n {
                if frozen[i] {
                    continue;
                }
                let p = path(i);
                if !p.contains(&(bottleneck as LinkId)) {
                    continue;
                }
                rates[i] = share;
                frozen[i] = true;
                unfrozen -= 1;
                for &l in p {
                    let li = l as usize;
                    remaining[li] = (remaining[li] - share).max(0.0);
                    load[li] -= 1;
                }
            }
            // The bottleneck is exhausted for anyone still crossing it.
            if remaining[bottleneck] < CAP_EPS {
                remaining[bottleneck] = 0.0;
            }
        }
        rates
    }
}

/// The allocator as it was before [`MaxMin`]: fresh buffers per call and
/// paths owned by the caller. Tests hold the solver to it bit for bit.
#[cfg(test)]
pub(crate) fn reference_max_min_rates(flows: &[Vec<LinkId>], capacity: &[f64]) -> Vec<f64> {
    let mut rates = vec![0.0f64; flows.len()];
    if flows.is_empty() {
        return rates;
    }
    let mut remaining: Vec<f64> = capacity.to_vec();
    let mut load = vec![0u32; capacity.len()];
    for path in flows {
        for &l in path {
            load[l as usize] += 1;
        }
    }
    let mut frozen = vec![false; flows.len()];
    let mut unfrozen = flows.len();
    while unfrozen > 0 {
        let mut bottleneck = usize::MAX;
        let mut share = f64::INFINITY;
        for (l, &n) in load.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let s = (remaining[l].max(0.0)) / f64::from(n);
            if s < share {
                share = s;
                bottleneck = l;
            }
        }
        if bottleneck == usize::MAX {
            break;
        }
        for (i, path) in flows.iter().enumerate() {
            if frozen[i] || !path.contains(&(bottleneck as LinkId)) {
                continue;
            }
            rates[i] = share;
            frozen[i] = true;
            unfrozen -= 1;
            for &l in path {
                let li = l as usize;
                remaining[li] = (remaining[li] - share).max(0.0);
                load[li] -= 1;
            }
        }
        if remaining[bottleneck] < CAP_EPS {
            remaining[bottleneck] = 0.0;
        }
    }
    rates
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_simcore::check::Check;
    use mcs_simcore::prop_assert_eq;

    #[test]
    fn reused_solver_matches_the_reference_bit_for_bit() {
        // One solver across every case: buffers left over from a larger or
        // smaller problem must never leak into the next answer.
        let solver = std::cell::RefCell::new(MaxMin::default());
        Check::new("max_min_reused_solver").cases(256).run(|rng| {
            let links = 1 + rng.uniform_usize(12);
            let caps: Vec<f64> = (0..links)
                .map(|_| match rng.uniform_usize(6) {
                    0 => 0.0,
                    1 => 1e-10,
                    2 => 50.0,
                    _ => rng.uniform_f64(1.0, 1e9),
                })
                .collect();
            let flows: Vec<Vec<LinkId>> = (0..rng.uniform_usize(24))
                .map(|_| {
                    let mut path: Vec<LinkId> = (0..links as LinkId).collect();
                    rng.shuffle(&mut path);
                    path.truncate(1 + rng.uniform_usize(links.min(4)));
                    path
                })
                .collect();
            let want: Vec<u64> =
                reference_max_min_rates(&flows, &caps).iter().map(|r| r.to_bits()).collect();
            let mut solver = solver.borrow_mut();
            let got = solver.solve(flows.len(), |i| &flows[i], &caps);
            let got: Vec<u64> = got.iter().map(|r| r.to_bits()).collect();
            prop_assert_eq!(&got, &want);
            let once: Vec<u64> = max_min_rates(&flows, &caps).iter().map(|r| r.to_bits()).collect();
            prop_assert_eq!(&once, &want);
            Ok(())
        });
    }

    #[test]
    fn single_flow_gets_path_bottleneck() {
        let rates = max_min_rates(&[vec![0, 2]], &[100.0, 400.0, 40.0]);
        assert_eq!(rates, vec![40.0]);
    }

    #[test]
    fn equal_flows_split_a_shared_link_evenly() {
        let flows = vec![vec![0], vec![0], vec![0], vec![0]];
        let rates = max_min_rates(&flows, &[100.0]);
        assert!(rates.iter().all(|&r| (r - 25.0).abs() < 1e-9), "{rates:?}");
    }

    #[test]
    fn water_filling_gives_leftover_to_unconstrained_flows() {
        // Flow 0 crosses links 0 and 1; flow 1 crosses only link 1.
        // Link 0 (cap 10) bottlenecks flow 0 at 10; flow 1 then gets the
        // remaining 90 of link 1 — not a naive 50/50 split.
        let flows = vec![vec![0, 1], vec![1]];
        let rates = max_min_rates(&flows, &[10.0, 100.0]);
        assert!((rates[0] - 10.0).abs() < 1e-9, "{rates:?}");
        assert!((rates[1] - 90.0).abs() < 1e-9, "{rates:?}");
    }

    #[test]
    fn cut_links_starve_their_flows_only() {
        let flows = vec![vec![0], vec![1]];
        let rates = max_min_rates(&flows, &[0.0, 50.0]);
        assert_eq!(rates[0], 0.0);
        assert!((rates[1] - 50.0).abs() < 1e-9);
    }

    #[test]
    fn no_link_is_oversubscribed() {
        // A dense cross-traffic pattern over a small fabric.
        let caps = [30.0, 20.0, 10.0, 25.0];
        let flows = vec![
            vec![0, 1],
            vec![1, 2],
            vec![2, 3],
            vec![0, 3],
            vec![0, 1, 2, 3],
            vec![3],
        ];
        let rates = max_min_rates(&flows, &caps);
        for (l, &cap) in caps.iter().enumerate() {
            let used: f64 = flows
                .iter()
                .zip(&rates)
                .filter(|(path, _)| path.contains(&(l as LinkId)))
                .map(|(_, &r)| r)
                .sum();
            assert!(used <= cap + 1e-6, "link {l}: {used} > {cap}");
        }
        // Work conservation: with all-positive capacities every flow moves.
        assert!(rates.iter().all(|&r| r > 0.0), "{rates:?}");
    }

    #[test]
    fn deterministic_for_equal_inputs() {
        let flows = vec![vec![0, 2], vec![1, 2], vec![0, 1]];
        let caps = [17.0, 23.0, 11.0];
        assert_eq!(max_min_rates(&flows, &caps), max_min_rates(&flows, &caps));
    }
}
