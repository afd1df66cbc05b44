//! Availability analysis of outage schedules.
//!
//! Computes the metrics the cited failure studies report: per-machine and
//! fleet availability, MTTF/MTTR, the distribution of *concurrently failed*
//! machines (the signature that separates correlated from independent
//! failures), and the largest availability gap.

use crate::model::Outage;
use mcs_simcore::metrics::Summary;
use mcs_simcore::time::{SimDuration, SimTime};

/// Merges overlapping outages of the same machine into disjoint intervals.
pub fn merge_per_machine(outages: &[Outage], machines: usize) -> Vec<Vec<(SimTime, SimTime)>> {
    let mut per: Vec<Vec<(SimTime, SimTime)>> = vec![Vec::new(); machines];
    for o in outages {
        if o.machine < machines {
            per[o.machine].push((o.fail_at, o.repair_at));
        }
    }
    for intervals in &mut per {
        intervals.sort();
        let mut merged: Vec<(SimTime, SimTime)> = Vec::with_capacity(intervals.len());
        for &(s, e) in intervals.iter() {
            match merged.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        *intervals = merged;
    }
    per
}

/// Fleet-level availability report.
#[derive(Debug, Clone, PartialEq)]
pub struct AvailabilityReport {
    /// Machines modelled.
    pub machines: usize,
    /// Total outages (after merging overlaps).
    pub outages: usize,
    /// Fraction of machine-time spent up, in `[0, 1]`.
    pub availability: f64,
    /// Mean time to failure, seconds (up-interval mean).
    pub mttf_secs: f64,
    /// Mean time to repair, seconds (down-interval mean).
    pub mttr_secs: f64,
    /// Distribution of downtime durations.
    pub downtime: Option<Summary>,
    /// Peak number of simultaneously failed machines.
    pub peak_concurrent_failures: usize,
    /// Time-average number of simultaneously failed machines.
    pub mean_concurrent_failures: f64,
}

/// Analyzes an outage schedule over `[0, horizon)`.
///
/// Returns a degenerate all-available report when `machines == 0` or the
/// horizon is empty.
pub fn analyze(outages: &[Outage], machines: usize, horizon: SimTime) -> AvailabilityReport {
    let horizon_s = horizon.as_secs_f64();
    if machines == 0 || horizon_s <= 0.0 {
        return AvailabilityReport {
            machines,
            outages: 0,
            availability: 1.0,
            mttf_secs: horizon_s,
            mttr_secs: 0.0,
            downtime: None,
            peak_concurrent_failures: 0,
            mean_concurrent_failures: 0.0,
        };
    }
    let per = merge_per_machine(outages, machines);
    let mut downtimes = Vec::new();
    let mut up_intervals = Vec::new();
    let mut total_down = 0.0;
    let mut events: Vec<(SimTime, i64)> = Vec::new();
    let mut outage_count = 0;

    for intervals in &per {
        let mut cursor = SimTime::ZERO;
        for &(s, e) in intervals {
            let s = s.min(horizon);
            let e = e.min(horizon);
            if e <= s {
                continue;
            }
            outage_count += 1;
            let down = (e - s).as_secs_f64();
            downtimes.push(down);
            total_down += down;
            if s > cursor {
                up_intervals.push((s - cursor).as_secs_f64());
            }
            cursor = e;
            events.push((s, 1));
            events.push((e, -1));
        }
        if horizon > cursor {
            up_intervals.push((horizon - cursor).as_secs_f64());
        }
    }

    // Sweep for concurrency.
    events.sort_by_key(|&(t, d)| (t, -d));
    let mut level: i64 = 0;
    let mut peak: i64 = 0;
    let mut weighted = 0.0;
    let mut last = SimTime::ZERO;
    for (t, d) in events {
        weighted += level as f64 * (t - last).as_secs_f64();
        last = t;
        level += d;
        peak = peak.max(level);
    }
    weighted += level as f64 * horizon.saturating_since(last).as_secs_f64();

    let machine_time = machines as f64 * horizon_s;
    AvailabilityReport {
        machines,
        outages: outage_count,
        availability: 1.0 - total_down / machine_time,
        mttf_secs: if up_intervals.is_empty() {
            horizon_s
        } else {
            up_intervals.iter().sum::<f64>() / up_intervals.len() as f64
        },
        mttr_secs: if downtimes.is_empty() {
            0.0
        } else {
            total_down / downtimes.len() as f64
        },
        downtime: Summary::of(&downtimes),
        peak_concurrent_failures: peak as usize,
        mean_concurrent_failures: weighted / horizon_s,
    }
}

/// The longest window during which at least `threshold` machines were down
/// simultaneously — the "correlated failure can take out the service" signal
/// (paper §2.2, second fundamental problem).
pub fn longest_degradation(
    outages: &[Outage],
    machines: usize,
    horizon: SimTime,
    threshold: usize,
) -> SimDuration {
    let per = merge_per_machine(outages, machines);
    let mut events: Vec<(SimTime, i64)> = Vec::new();
    for intervals in &per {
        for &(s, e) in intervals {
            events.push((s.min(horizon), 1));
            events.push((e.min(horizon), -1));
        }
    }
    events.sort_by_key(|&(t, d)| (t, -d));
    let mut level = 0i64;
    let mut best = SimDuration::ZERO;
    let mut entered: Option<SimTime> = None;
    for (t, d) in events {
        level += d;
        if level >= threshold as i64 && entered.is_none() {
            entered = Some(t);
        } else if level < threshold as i64 {
            if let Some(s) = entered.take() {
                best = best.max(t.saturating_since(s));
            }
        }
    }
    if let Some(s) = entered {
        best = best.max(horizon.saturating_since(s));
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn o(machine: usize, fail: u64, repair: u64) -> Outage {
        Outage {
            machine,
            fail_at: SimTime::from_secs(fail),
            repair_at: SimTime::from_secs(repair),
        }
    }

    #[test]
    fn merge_overlapping_intervals() {
        let outages = vec![o(0, 10, 20), o(0, 15, 30), o(0, 40, 50), o(1, 5, 6)];
        let per = merge_per_machine(&outages, 2);
        assert_eq!(
            per[0],
            vec![
                (SimTime::from_secs(10), SimTime::from_secs(30)),
                (SimTime::from_secs(40), SimTime::from_secs(50))
            ]
        );
        assert_eq!(per[1].len(), 1);
    }

    #[test]
    fn availability_hand_example() {
        // 2 machines, horizon 100 s. m0 down 10 s, m1 down 30 s.
        let outages = vec![o(0, 10, 20), o(1, 50, 80)];
        let r = analyze(&outages, 2, SimTime::from_secs(100));
        assert_eq!(r.outages, 2);
        assert!((r.availability - (1.0 - 40.0 / 200.0)).abs() < 1e-12);
        assert!((r.mttr_secs - 20.0).abs() < 1e-12);
        assert_eq!(r.peak_concurrent_failures, 1);
        // Mean concurrency: 40 machine-seconds of downtime / 100 s = 0.4.
        assert!((r.mean_concurrent_failures - 0.4).abs() < 1e-12);
    }

    #[test]
    fn concurrent_failures_detected() {
        let outages = vec![o(0, 10, 30), o(1, 15, 25), o(2, 18, 22)];
        let r = analyze(&outages, 3, SimTime::from_secs(100));
        assert_eq!(r.peak_concurrent_failures, 3);
    }

    #[test]
    fn outages_clipped_to_horizon() {
        let outages = vec![o(0, 90, 200)];
        let r = analyze(&outages, 1, SimTime::from_secs(100));
        assert!((r.availability - 0.9).abs() < 1e-12);
    }

    #[test]
    fn empty_population_fully_available() {
        let r = analyze(&[], 0, SimTime::from_secs(100));
        assert_eq!(r.availability, 1.0);
        let r2 = analyze(&[], 4, SimTime::from_secs(100));
        assert_eq!(r2.availability, 1.0);
        assert_eq!(r2.outages, 0);
    }

    #[test]
    fn space_correlation_multiplies_peak_concurrent_failures() {
        // The correlated-failures ablation: 128 machines for 30 days at a
        // per-machine MTBF of 100 h, bursts confined to 16-machine domains.
        // Equal MTBF, but bursts take down many machines at once.
        use crate::model::{FailureModel, IndependentFailures, SpaceCorrelatedFailures};
        use mcs_simcore::rng::RngStream;
        let machines = 128;
        let horizon = SimTime::from_secs(30 * 86_400);
        let mtbf = 100.0 * 3600.0;
        let independent = IndependentFailures::with_mtbf(mtbf);
        let space = SpaceCorrelatedFailures::with_mtbf(mtbf, machines, 16);
        for seed in [1, 4, 7, 42] {
            let peak = |model: &dyn FailureModel, label: &str| {
                let outages = model.generate(machines, horizon, &mut RngStream::new(seed, label));
                analyze(&outages, machines, horizon).peak_concurrent_failures
            };
            let ind = peak(&independent, "independent");
            let spc = peak(&space, "space");
            assert!(
                spc >= 3 * ind,
                "seed {seed}: space-correlated peak {spc}, independent {ind}"
            );
        }
    }

    #[test]
    fn longest_degradation_window() {
        // Two machines down together during [15, 25).
        let outages = vec![o(0, 10, 25), o(1, 15, 40)];
        let d = longest_degradation(&outages, 2, SimTime::from_secs(100), 2);
        assert_eq!(d, SimDuration::from_secs(10));
        let d1 = longest_degradation(&outages, 2, SimTime::from_secs(100), 1);
        assert_eq!(d1, SimDuration::from_secs(30));
        let d3 = longest_degradation(&outages, 2, SimTime::from_secs(100), 3);
        assert_eq!(d3, SimDuration::ZERO);
    }
}
