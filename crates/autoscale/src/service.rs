//! The elastic-service simulator that exercises autoscalers.
//!
//! A service receives a time-varying request rate; every scaling interval
//! the autoscaler observes the demand history and sets a target instance
//! count. Scale-up takes a provisioning delay (VM boot time), scale-down is
//! immediate. The simulator reports the (demand, supply) series, the SPEC
//! elasticity metrics, SLO violations, and cost — the full row set of the
//! autoscaler comparison the paper cites (C7, \[43\]).
//!
//! The simulation is an engine actor: [`ServiceActor`] advances one scaling
//! interval per [`ServiceMsg::Tick`] on the shared
//! [`Simulation`] kernel, emitting an
//! `"autoscale"`/`"interval"` trace record each tick;
//! [`simulate_service`] is the thin single-actor wrapper.

use crate::autoscalers::{AutoscaleObservation, Autoscaler};
use crate::elasticity::{unserved_fraction, ElasticityMetrics};
use mcs_simcore::engine::{Actor, Context, MessageEnvelope, Simulation};
use mcs_simcore::time::{SimDuration, SimTime};
use mcs_simcore::trace::Field;

/// Parameters of the elastic service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// Requests per second one instance can serve at its SLO.
    pub per_instance_rps: f64,
    /// Target utilization headroom: demand is computed so instances run at
    /// this fraction of capacity (≤ 1.0).
    pub target_utilization: f64,
    /// Length of one scaling interval.
    pub scaling_interval: SimDuration,
    /// Intervals between asking for an instance and it serving traffic.
    pub provisioning_delay_intervals: usize,
    /// Floor on instances.
    pub min_instances: usize,
    /// Ceiling on instances.
    pub max_instances: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            per_instance_rps: 100.0,
            target_utilization: 0.7,
            scaling_interval: SimDuration::from_secs(60),
            provisioning_delay_intervals: 2,
            min_instances: 1,
            max_instances: 1_000,
        }
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

/// The elastic service's message vocabulary: one `Tick` per scaling
/// interval, self-scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceMsg {
    /// Advance one scaling interval: observe demand, consult the
    /// autoscaler, advance the provisioning pipeline.
    Tick,
}

/// The elastic service as a simulation actor.
///
/// Each delivered `Tick` executes one scaling interval at the tick's
/// virtual instant; the actor re-arms itself until the configured number of
/// intervals has elapsed. Extract results with [`ServiceActor::outcome`]
/// after the simulation is dropped.
pub struct ServiceActor<'a> {
    rate: &'a dyn Fn(SimTime) -> f64,
    config: ServiceConfig,
    autoscaler: &'a mut dyn Autoscaler,
    intervals: usize,
    intervals_per_day: usize,
    capacity: f64,
    interval: usize,
    demand: Vec<f64>,
    supply: Vec<f64>,
    history: Vec<f64>,
    active: usize,
    pipeline: Vec<usize>,
}

impl<'a> ServiceActor<'a> {
    /// Builds the actor for `intervals` scaling intervals of `config`.
    ///
    /// # Panics
    /// Panics when the scaling interval is zero or `intervals` is zero.
    pub fn new(
        rate: &'a dyn Fn(SimTime) -> f64,
        config: ServiceConfig,
        autoscaler: &'a mut dyn Autoscaler,
        intervals: usize,
    ) -> Self {
        assert!(!config.scaling_interval.is_zero(), "scaling interval must be positive");
        assert!(intervals > 0, "horizon must cover at least one interval");
        let interval_secs = config.scaling_interval.as_secs_f64();
        let intervals_per_day = ((24.0 * 3600.0) / interval_secs).round().max(1.0) as usize;
        let capacity = config.per_instance_rps * config.target_utilization.clamp(0.01, 1.0);
        let active = config.min_instances.max(1);
        let pipeline = vec![0; config.provisioning_delay_intervals + 1];
        ServiceActor {
            rate,
            config,
            autoscaler,
            intervals,
            intervals_per_day,
            capacity,
            interval: 0,
            demand: Vec::with_capacity(intervals),
            supply: Vec::with_capacity(intervals),
            history: Vec::new(),
            active,
            pipeline,
        }
    }

    /// The measured outcome; call after the simulation has run.
    pub fn outcome(&self) -> ServiceOutcome {
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

    /// One scaling interval at the tick's instant.
    fn tick<M: MessageEnvelope<ServiceMsg>>(&mut self, ctx: &mut Context<'_, M>) {
        let i = self.interval;
        // Demand of this interval, from the mid-interval rate.
        let mid = ctx.now() + self.config.scaling_interval / 2;
        let d = ((self.rate)(mid) / self.capacity).max(0.0);
        self.demand.push(d);
        self.supply.push(self.active as f64);
        self.history.push(d);

        // Autoscaler decides for the next interval.
        let obs = AutoscaleObservation {
            demand_history: self.history.clone(),
            supply: self.active,
            interval_index: i,
            intervals_per_day: self.intervals_per_day,
        };
        let target = self
            .autoscaler
            .decide(&obs)
            .clamp(self.config.min_instances, self.config.max_instances);

        // Advance the provisioning pipeline: slot 0 becomes active.
        let arriving = self.pipeline.remove(0);
        self.pipeline.push(0);
        self.active += arriving;
        let in_flight: usize = self.pipeline.iter().sum();

        if target > self.active + in_flight {
            let extra = target - self.active - in_flight;
            let last = self.pipeline.len() - 1;
            self.pipeline[last] += extra;
        } else if target < self.active {
            // Scale-down is immediate (instances stop at interval edge).
            self.active = target.max(self.config.min_instances);
        }

        ctx.emit_fields(
            "autoscale",
            "interval",
            &[
                ("demand", Field::F64(d)),
                ("supply", Field::F64(self.supply[i])),
                ("target", Field::U64(target as u64)),
            ],
        );

        self.interval += 1;
        if self.interval < self.intervals {
            ctx.send_self(self.config.scaling_interval, M::wrap(ServiceMsg::Tick));
        }
    }
}

impl<M: MessageEnvelope<ServiceMsg>> Actor<M> for ServiceActor<'_> {
    fn handle(&mut self, ctx: &mut Context<'_, M>, msg: M) {
        let Some(ServiceMsg::Tick) = msg.unwrap() else { return };
        self.tick(ctx);
    }
}

/// Runs `autoscaler` against the request-rate function `rate` (requests per
/// second at instant `t`) over `[0, horizon)`.
///
/// A thin wrapper: builds a single-actor [`Simulation`] around
/// [`ServiceActor`] and runs it to quiescence.
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
    let mut actor = ServiceActor::new(rate, config, autoscaler, intervals);
    let mut sim: Simulation<'_, ServiceMsg> = Simulation::new(0);
    let id = sim.add_actor(&mut actor);
    sim.schedule(SimTime::ZERO, id, ServiceMsg::Tick);
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
            per_instance_rps: 100.0,
            target_utilization: 1.0,
            scaling_interval: SimDuration::from_secs(60),
            provisioning_delay_intervals: 1,
            min_instances: 1,
            max_instances: 100,
        }
    }

    #[test]
    fn constant_rate_reaches_steady_state() {
        let rate = |_t: SimTime| 500.0; // needs 5 instances
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
        let rate = |_t: SimTime| 200.0; // needs 2
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
        let rate = |_t: SimTime| 1_000.0; // needs 10
        let mut scaler = StaticAutoscaler(2);
        let out =
            simulate_service(&rate, SimTime::from_secs(3600), config(), &mut scaler);
        assert!(out.unserved_fraction > 0.7);
        assert!(out.overload_fraction > 0.9);
    }

    #[test]
    fn provisioning_delay_creates_lag() {
        // A step function: quiet, then a jump.
        let rate = |t: SimTime| if t < SimTime::from_secs(1800) { 100.0 } else { 1_000.0 };
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
        let rate = |t: SimTime| if t < SimTime::from_secs(1800) { 1_000.0 } else { 100.0 };
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
    fn service_emits_interval_trace() {
        let rate = |_t: SimTime| 300.0;
        let mut scaler = React { headroom: 0.0 };
        let mut actor = ServiceActor::new(&rate, config(), &mut scaler, 10);
        let mut sim: Simulation<'_, ServiceMsg> = Simulation::new(0);
        let id = sim.add_actor(&mut actor);
        sim.schedule(SimTime::ZERO, id, ServiceMsg::Tick);
        sim.run();
        assert_eq!(sim.trace().count("autoscale", "interval"), 10);
        // Ticks land on interval edges.
        assert_eq!(sim.trace().events()[1].at, SimTime::from_secs(60));
        let demand = sim.trace().series("autoscale", "interval", "demand");
        assert!(demand.iter().all(|(_, d)| (*d - 3.0).abs() < 1e-9));
    }
}
