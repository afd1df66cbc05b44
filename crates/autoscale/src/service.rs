//! The elastic-service simulator that exercises autoscalers.
//!
//! A service receives a time-varying request rate; every scaling interval
//! the autoscaler observes the demand history and sets a target instance
//! count. Scale-up takes a provisioning delay (VM boot time), scale-down is
//! immediate. The simulator reports the (demand, supply) series, the SPEC
//! elasticity metrics, SLO violations, and cost — the full row set of the
//! autoscaler comparison the paper cites (C7, \[43\]).
//!
//! [`simulate_service`] runs one private engine actor on its own
//! [`Simulation`]: one tick per scaling interval, each taking the same
//! scaling decision as [`crate::governor::GovernorActor`] (and tracing it as
//! `autoscale/decision`), then advancing the service's provisioning
//! pipeline.

use crate::autoscalers::Autoscaler;
use crate::elasticity::{unserved_fraction, ElasticityMetrics};
use crate::governor::ScalingStep;
use mcs_simcore::engine::{Actor, Context, Simulation};
use mcs_simcore::time::{SimDuration, SimTime};

/// Requests per second one instance serves: 100 requests/s at its SLO, run
/// at a 70 % utilization target.
const INSTANCE_RPS: f64 = 70.0;

/// Autoscaling cadence and bounds, shared by [`simulate_service`] and
/// [`crate::governor::GovernorActor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// Length of one scaling interval.
    pub scaling_interval: SimDuration,
    /// Provisioning delay d, in scaling intervals. [`simulate_service`]
    /// counts a scale-up decided at interval i in the supply of interval
    /// i + d + 2 onwards; [`crate::governor::GovernorActor`] applies it
    /// d intervals after the decision.
    pub provisioning_delay_intervals: usize,
    /// Floor on instances.
    pub min_instances: usize,
    /// Ceiling on instances.
    pub max_instances: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            scaling_interval: SimDuration::from_secs(60),
            provisioning_delay_intervals: 2,
            min_instances: 1,
            max_instances: 1_000,
        }
    }
}

impl ServiceConfig {
    /// Scaling intervals per day (at least 1), the period of history-based
    /// (Hist) prediction.
    pub fn intervals_per_day(&self) -> usize {
        ((24.0 * 3600.0) / self.scaling_interval.as_secs_f64()).round().max(1.0) as usize
    }
}

/// The measured outcome of one autoscaled run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceOutcome {
    /// Instances needed per interval.
    pub demand: Vec<f64>,
    /// Instances active per interval.
    pub supply: Vec<f64>,
    /// SPEC elasticity metrics of supply vs demand.
    pub elasticity: ElasticityMetrics,
    /// Fraction of demanded capacity that went unserved.
    pub unserved_fraction: f64,
    /// Fraction of intervals with demand > supply (SLO at risk).
    pub overload_fraction: f64,
    /// Total instance-hours provisioned (the cost proxy).
    pub instance_hours: f64,
}

/// Advance one scaling interval (self-scheduled, one per interval).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Tick;

/// The elastic service as a simulation actor: each delivered `Tick` runs one
/// scaling interval at the tick's instant and re-arms itself until
/// `intervals` intervals have elapsed.
struct ServiceActor<'a> {
    rate: &'a dyn Fn(SimTime) -> f64,
    config: ServiceConfig,
    step: ScalingStep<'a>,
    intervals: usize,
    demand: Vec<f64>,
    supply: Vec<f64>,
    active: usize,
    /// Instances ordered per remaining interval of delay; slot 0 arrives at
    /// the next tick.
    pipeline: Vec<usize>,
}

impl<'a> ServiceActor<'a> {
    fn new(
        rate: &'a dyn Fn(SimTime) -> f64,
        config: ServiceConfig,
        autoscaler: &'a mut dyn Autoscaler,
        intervals: usize,
    ) -> Self {
        ServiceActor {
            rate,
            config,
            step: ScalingStep::new(autoscaler, config),
            intervals,
            demand: Vec::with_capacity(intervals),
            supply: Vec::with_capacity(intervals),
            active: config.min_instances.max(1),
            pipeline: vec![0; config.provisioning_delay_intervals + 1],
        }
    }

    fn outcome(&self) -> ServiceOutcome {
        let interval_secs = self.config.scaling_interval.as_secs_f64();
        let elasticity = ElasticityMetrics::compute(&self.demand, &self.supply)
            .expect("demand/supply series are non-empty and aligned");
        let overload = self
            .demand
            .iter()
            .zip(&self.supply)
            .filter(|(d, s)| **d > **s + 1e-9)
            .count() as f64
            / self.demand.len() as f64;
        ServiceOutcome {
            unserved_fraction: unserved_fraction(&self.demand, &self.supply),
            overload_fraction: overload,
            instance_hours: self.supply.iter().sum::<f64>() * interval_secs / 3600.0,
            elasticity,
            demand: self.demand.clone(),
            supply: self.supply.clone(),
        }
    }
}

impl Actor<Tick> for ServiceActor<'_> {
    fn handle(&mut self, ctx: &mut Context<'_, Tick>, _tick: Tick) {
        // Demand of this interval, from the mid-interval rate.
        let mid = ctx.now() + self.config.scaling_interval / 2;
        let d = ((self.rate)(mid) / INSTANCE_RPS).max(0.0);
        self.demand.push(d);
        self.supply.push(self.active as f64);

        // Autoscaler decides for the next interval.
        let (_, target) = self.step.decide(ctx, d, self.active);

        // Advance the provisioning pipeline: slot 0 becomes active.
        let arriving = self.pipeline.remove(0);
        self.pipeline.push(0);
        self.active += arriving;
        let in_flight: usize = self.pipeline.iter().sum();

        if target > self.active + in_flight {
            let last = self.pipeline.len() - 1;
            self.pipeline[last] += target - self.active - in_flight;
        } else if target < self.active {
            // Scale-down is immediate (instances stop at interval edge).
            self.active = target;
        }

        if self.demand.len() < self.intervals {
            ctx.send_self(self.config.scaling_interval, Tick);
        }
    }
}

/// Runs `autoscaler` against the request-rate function `rate` (requests per
/// second at instant `t`) over `[0, horizon)`, one scaling decision per
/// interval on a single-actor [`Simulation`].
///
/// # Panics
/// Panics when the scaling interval is zero or the horizon is empty.
pub fn simulate_service(
    rate: &dyn Fn(SimTime) -> f64,
    horizon: SimTime,
    config: ServiceConfig,
    autoscaler: &mut dyn Autoscaler,
) -> ServiceOutcome {
    assert!(!config.scaling_interval.is_zero(), "scaling interval must be positive");
    let intervals =
        (horizon.as_secs_f64() / config.scaling_interval.as_secs_f64()).ceil() as usize;
    assert!(intervals > 0, "horizon must cover at least one interval");
    let mut actor = ServiceActor::new(rate, config, autoscaler, intervals);
    let mut sim: Simulation<'_, Tick> = Simulation::new(0);
    let id = sim.add_actor(&mut actor);
    sim.schedule(SimTime::ZERO, id, Tick);
    sim.run();
    drop(sim);
    actor.outcome()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autoscalers::{React, StaticAutoscaler};

    fn config() -> ServiceConfig {
        ServiceConfig {
            scaling_interval: SimDuration::from_secs(60),
            provisioning_delay_intervals: 1,
            min_instances: 1,
            max_instances: 100,
        }
    }

    #[test]
    fn constant_rate_reaches_steady_state() {
        let rate = |_t: SimTime| 5.0 * INSTANCE_RPS;
        let mut scaler = React { headroom: 0.0 };
        let out =
            simulate_service(&rate, SimTime::from_secs(3600), config(), &mut scaler);
        // After the pipeline fills, supply should sit at 5.
        let tail = &out.supply[10..];
        assert!(tail.iter().all(|&s| (s - 5.0).abs() < 1e-9), "{tail:?}");
        assert!(out.overload_fraction < 0.2);
    }

    #[test]
    fn static_overprovision_serves_everything_expensively() {
        let rate = |_t: SimTime| 2.0 * INSTANCE_RPS;
        let mut scaler = StaticAutoscaler(20);
        let out =
            simulate_service(&rate, SimTime::from_secs(3600), config(), &mut scaler);
        // Only the cold-start intervals (supply ramping from min_instances)
        // may be short; afterwards everything is served.
        assert!(out.unserved_fraction < 0.05, "{}", out.unserved_fraction);
        assert!(out.elasticity.timeshare_over > 0.9);
        // 20 instances for 1 h.
        assert!((out.instance_hours - 20.0).abs() < 1.0);
    }

    #[test]
    fn static_underprovision_starves() {
        let rate = |_t: SimTime| 10.0 * INSTANCE_RPS;
        let mut scaler = StaticAutoscaler(2);
        let out =
            simulate_service(&rate, SimTime::from_secs(3600), config(), &mut scaler);
        assert!(out.unserved_fraction > 0.7);
        assert!(out.overload_fraction > 0.9);
    }

    #[test]
    fn provisioning_delay_creates_lag() {
        // A step function: quiet, then a jump.
        let rate =
            |t: SimTime| INSTANCE_RPS * if t < SimTime::from_secs(1800) { 1.0 } else { 10.0 };
        let mut cfg = config();
        cfg.provisioning_delay_intervals = 5;
        let mut scaler = React { headroom: 0.0 };
        let out = simulate_service(&rate, SimTime::from_secs(3600), cfg, &mut scaler);
        // Some intervals right after the step must be overloaded.
        assert!(out.overload_fraction > 0.0);
        // But the tail catches up.
        let last = *out.supply.last().unwrap();
        assert!((last - 10.0).abs() < 1e-9, "final supply {last}");
    }

    #[test]
    fn scale_down_is_immediate() {
        let rate =
            |t: SimTime| INSTANCE_RPS * if t < SimTime::from_secs(1800) { 10.0 } else { 1.0 };
        let mut scaler = React { headroom: 0.0 };
        let out =
            simulate_service(&rate, SimTime::from_secs(3600), config(), &mut scaler);
        let idx_after_drop = 1800 / 60 + 2;
        assert!(
            out.supply[idx_after_drop as usize] <= 2.0,
            "supply after drop: {}",
            out.supply[idx_after_drop as usize]
        );
    }

    #[test]
    fn respects_min_max_bounds() {
        let rate = |_t: SimTime| 100_000.0;
        let mut cfg = config();
        cfg.max_instances = 7;
        let mut scaler = React { headroom: 0.0 };
        let out = simulate_service(&rate, SimTime::from_secs(3600), cfg, &mut scaler);
        assert!(out.supply.iter().all(|&s| s <= 7.0));
    }

    #[test]
    fn scale_up_counts_in_supply_from_interval_delay_plus_two() {
        let rate = |_t: SimTime| 5.0 * INSTANCE_RPS;
        for (delay, first) in [(0, 2), (1, 3), (2, 4), (5, 7)] {
            let mut cfg = config();
            cfg.provisioning_delay_intervals = delay;
            let mut scaler = StaticAutoscaler(5);
            let out = simulate_service(&rate, SimTime::from_secs(1200), cfg, &mut scaler);
            let at = out.supply.iter().position(|&s| s == 5.0);
            assert_eq!(at, Some(first), "delay {delay}: {:?}", out.supply);
            assert!(out.supply[..first].iter().all(|&s| s == 1.0), "delay {delay}");
        }
    }

    #[test]
    fn service_traces_one_decision_per_interval() {
        let rate = |_t: SimTime| 3.0 * INSTANCE_RPS;
        let mut scaler = React { headroom: 0.0 };
        let mut actor = ServiceActor::new(&rate, config(), &mut scaler, 10);
        let mut sim: Simulation<'_, Tick> = Simulation::new(0);
        let id = sim.add_actor(&mut actor);
        sim.schedule(SimTime::ZERO, id, Tick);
        sim.run();
        assert_eq!(sim.trace().count("autoscale", "decision"), 10);
        // Ticks land on interval edges.
        assert_eq!(sim.trace().events()[1].at, SimTime::from_secs(60));
        let demand = sim.trace().series("autoscale", "decision", "demand");
        assert!(demand.iter().all(|(_, d)| (*d - 3.0).abs() < 1e-9));
    }
}
