//! The virtual world as a discrete-event actor.
//!
//! [`WorldActor`] puts the Figure 4 Virtual World function on the engine:
//! players join over a diurnal [`Diurnal`] process (armed online, one
//! pending event at a time), hold a session, and leave; zone instances are
//! provisioned statically or elastically. It is the only virtual-world
//! model: [`simulate_world`](crate::world::simulate_world) runs it
//! standalone and reduces its trace. Inside a scenario it is also an
//! *ecosystem member*: machine failures fanned in from a scenario-level
//! injector kill zone instances (disconnecting overflow players), and
//! co-tenant network pressure (a big-data shuffle window, via
//! [`GamingMsg::Pressure`]) shrinks effective zone capacity. Contiguous
//! intervals where occupancy sits above the overload watermark are traced
//! as `overload_start`/`overload_end` pairs, so the zone-overload-minutes
//! metric is computed from traces alone.

use crate::world::{session_secs, PlayerModel, ZoneProvisioning};
use mcs_simcore::engine::{Actor, Context, MessageEnvelope, Simulation};
use mcs_simcore::rng::RngStream;
use mcs_simcore::time::{SimDuration, SimTime};
use mcs_simcore::trace::{Field, TraceBus};
use mcs_workload::arrival::{ArrivalProcess, Diurnal};

/// Configuration of the gaming subsystem inside a scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct GamingConfig {
    /// Player population (arrival pattern).
    pub players: PlayerModel,
    /// Zone deployment model.
    pub provisioning: ZoneProvisioning,
}

/// Players one zone instance can host.
const ZONE_CAPACITY: usize = 100;
/// Occupancy fraction above which the world counts as overloaded.
const OVERLOAD_WATERMARK: f64 = 0.95;
/// Effective-capacity multiplier while co-tenant network pressure is on.
const PRESSURE_CAPACITY_FACTOR: f64 = 0.85;

impl Default for GamingConfig {
    fn default() -> Self {
        GamingConfig {
            players: PlayerModel { base_rate: 0.5, ..PlayerModel::default() },
            provisioning: ZoneProvisioning::Elastic {
                min_zones: 2,
                max_zones: 24,
                high_watermark: 0.8,
                low_watermark: 0.3,
                boot_delay: SimDuration::from_secs(60),
            },
        }
    }
}

/// The gaming actor's message vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GamingMsg {
    /// Kick-off: arm the first player arrival.
    Start,
    /// One player tries to join now.
    Join,
    /// One player session ends now.
    Leave,
    /// A zone instance finished booting.
    ZoneReady,
    /// A machine hosting a zone died (from the scenario failure injector).
    NodeFail(u32),
    /// The machine came back.
    NodeRepair(u32),
    /// Co-tenant network pressure turned on (`true`) or off (`false`).
    Pressure(bool),
    /// Periodic state-sync tick (armed only when a sync hook is installed).
    SyncTick,
    /// A state-sync transfer was delivered; `true` when it arrived later
    /// than the lag budget (flow-level network mode).
    SyncDone(bool),
}

/// Cadence of world-state sync bursts (Fig. 4's inter-zone and
/// client-update fan-out, aggregated). Each burst ships
/// `SYNC_BASE_BYTES + SYNC_PER_PLAYER_BYTES * online` over the network model.
const SYNC_INTERVAL: SimDuration = SimDuration::from_secs(5);
/// Fixed payload per sync burst, bytes.
const SYNC_BASE_BYTES: u64 = 256 * 1024;
/// Additional payload per online player, bytes.
const SYNC_PER_PLAYER_BYTES: u64 = 4 * 1024;

/// Hook that carries one sync burst onto the network model:
/// `(ctx, sequence_number, bytes)`. The installer must deliver
/// [`GamingMsg::SyncDone`] when the transfer lands.
pub type SyncHook<'a, M> = Box<dyn FnMut(&mut Context<'_, M>, u64, u64) + 'a>;

/// Runs the virtual world as one engine actor.
pub struct WorldActor<'a, M = GamingMsg> {
    sync: Option<SyncHook<'a, M>>,
    sync_seq: u64,
    laggy_syncs: u64,
    arrivals: Diurnal,
    rng: RngStream,
    horizon: SimTime,
    zones: usize,
    min_zones: usize,
    max_zones: usize,
    high: f64,
    low: f64,
    boot: SimDuration,
    booting: usize,
    dead_zones: usize,
    pressure: u32,
    online: u64,
    ghost_leaves: u64,
    overloaded_since: Option<SimTime>,
}

impl<'a, M: MessageEnvelope<GamingMsg>> WorldActor<'a, M> {
    /// Builds the actor. The RNG stream must be dedicated to this actor
    /// (label `"gaming"` by convention) so composition does not perturb
    /// other subsystems; `horizon` bounds the arrival process.
    pub fn new(config: GamingConfig, horizon: SimTime, rng: RngStream) -> Self {
        let arrivals = Diurnal {
            base_rate: config.players.base_rate,
            amplitude: config.players.amplitude,
            period: config.players.period,
            flash: config.players.flash,
        };
        let (zones, min_zones, max_zones, high, low, boot) = match config.provisioning {
            ZoneProvisioning::Static { zones } => {
                (zones, zones, zones, 2.0, -1.0, SimDuration::ZERO)
            }
            ZoneProvisioning::Elastic {
                min_zones,
                max_zones,
                high_watermark,
                low_watermark,
                boot_delay,
            } => (min_zones, min_zones, max_zones, high_watermark, low_watermark, boot_delay),
        };
        WorldActor {
            sync: None,
            sync_seq: 0,
            laggy_syncs: 0,
            arrivals,
            rng,
            horizon,
            zones,
            min_zones,
            max_zones,
            high,
            low,
            boot,
            booting: 0,
            dead_zones: 0,
            pressure: 0,
            online: 0,
            ghost_leaves: 0,
            overloaded_since: None,
        }
    }

    /// Ships periodic state-sync traffic through the flow-level network
    /// model. The hook owner delivers [`GamingMsg::SyncDone`] per burst.
    #[must_use]
    pub fn with_sync(mut self, hook: impl FnMut(&mut Context<'_, M>, u64, u64) + 'a) -> Self {
        self.sync = Some(Box::new(hook));
        self
    }

    /// Sync bursts that arrived later than the lag budget.
    pub fn laggy_syncs(&self) -> u64 {
        self.laggy_syncs
    }

    /// Zone instances currently serving players.
    fn available_zones(&self) -> usize {
        self.zones.saturating_sub(self.dead_zones)
    }

    /// Player slots available right now, shrunk under co-tenant pressure.
    fn capacity(&self) -> usize {
        let raw = self.available_zones() * ZONE_CAPACITY;
        if self.pressure > 0 {
            (raw as f64 * PRESSURE_CAPACITY_FACTOR).floor() as usize
        } else {
            raw
        }
    }

    /// Re-evaluates the overload predicate after any state change, tracing
    /// transitions so overload minutes fall out of the trace.
    fn refresh_overload(&mut self, ctx: &mut Context<'_, M>) {
        let capacity = self.capacity();
        let overloaded =
            self.online > 0 && self.online as f64 >= capacity as f64 * OVERLOAD_WATERMARK;
        match (self.overloaded_since, overloaded) {
            (None, true) => {
                self.overloaded_since = Some(ctx.now());
                ctx.emit_fields(
                    "gaming",
                    "overload_start",
                    &[
                        ("online", Field::U64(self.online)),
                        ("capacity", Field::U64(capacity as u64)),
                    ],
                );
            }
            (Some(since), false) => {
                self.overloaded_since = None;
                ctx.emit_fields(
                    "gaming",
                    "overload_end",
                    &[("secs", Field::F64((ctx.now() - since).as_secs_f64()))],
                );
            }
            _ => {}
        }
    }

    fn arm_next_join(&mut self, ctx: &mut Context<'_, M>) {
        if let Some(t) = self.arrivals.next_after(ctx.now(), &mut self.rng) {
            if t < self.horizon {
                ctx.send_at(ctx.self_id(), t, M::wrap(GamingMsg::Join));
            }
        }
    }

    fn join(&mut self, ctx: &mut Context<'_, M>) {
        if (self.online as usize) < self.capacity() {
            self.online += 1;
            ctx.emit_fields("gaming", "join", &[("online", Field::U64(self.online))]);
            let session = session_secs(&mut self.rng);
            ctx.send_self(SimDuration::from_secs_f64(session), M::wrap(GamingMsg::Leave));
        } else {
            ctx.emit_fields("gaming", "reject", &[("online", Field::U64(self.online))]);
        }

        // Elastic control loop, evaluated at every join. Failed zones count
        // against occupancy, so failures push the controller toward
        // compensating capacity.
        let occupancy = self.online as f64 / (self.available_zones() * ZONE_CAPACITY).max(1) as f64;
        if occupancy > self.high && self.zones + self.booting < self.max_zones {
            self.booting += 1;
            ctx.send_self(self.boot, M::wrap(GamingMsg::ZoneReady));
        } else if occupancy < self.low && self.zones > self.min_zones && self.booting == 0 {
            self.zones -= 1;
            ctx.emit_fields(
                "gaming",
                "zone_down",
                &[("zones", Field::U64(self.available_zones() as u64))],
            );
        }
        self.refresh_overload(ctx);
        self.arm_next_join(ctx);
    }

    fn leave(&mut self, ctx: &mut Context<'_, M>) {
        // A zone failure may have already disconnected this player.
        if self.ghost_leaves > 0 {
            self.ghost_leaves -= 1;
            return;
        }
        if self.online == 0 {
            return;
        }
        self.online -= 1;
        ctx.emit_fields("gaming", "leave", &[("online", Field::U64(self.online))]);
        self.refresh_overload(ctx);
    }

    fn zone_ready(&mut self, ctx: &mut Context<'_, M>) {
        self.booting = self.booting.saturating_sub(1);
        self.zones += 1;
        ctx.emit_fields(
            "gaming",
            "zone_up",
            &[("zones", Field::U64(self.available_zones() as u64))],
        );
        self.refresh_overload(ctx);
    }

    /// Kills one zone instance and disconnects the players the remaining
    /// capacity can no longer hold.
    fn node_fail(&mut self, ctx: &mut Context<'_, M>, node: u32) {
        if self.available_zones() == 0 {
            return;
        }
        self.dead_zones += 1;
        ctx.emit_fields(
            "gaming",
            "zone_fail",
            &[
                ("node", Field::U64(u64::from(node))),
                ("zones", Field::U64(self.available_zones() as u64)),
            ],
        );
        let capacity = self.capacity() as u64;
        while self.online > capacity {
            self.online -= 1;
            self.ghost_leaves += 1;
            ctx.emit_fields(
                "gaming",
                "disconnect",
                &[("online", Field::U64(self.online))],
            );
        }
        self.refresh_overload(ctx);
    }

    fn node_repair(&mut self, ctx: &mut Context<'_, M>, node: u32) {
        if self.dead_zones == 0 {
            return;
        }
        self.dead_zones -= 1;
        ctx.emit_fields(
            "gaming",
            "zone_repair",
            &[
                ("node", Field::U64(u64::from(node))),
                ("zones", Field::U64(self.available_zones() as u64)),
            ],
        );
        self.refresh_overload(ctx);
    }

    fn set_pressure(&mut self, ctx: &mut Context<'_, M>, on: bool) {
        if on {
            self.pressure += 1;
        } else {
            self.pressure = self.pressure.saturating_sub(1);
        }
        ctx.emit_fields(
            "gaming",
            "pressure",
            &[("windows", Field::U64(u64::from(self.pressure)))],
        );
        self.refresh_overload(ctx);
    }

    fn arm_sync(&mut self, ctx: &mut Context<'_, M>) {
        if self.sync.is_some() {
            let t = ctx.now() + SYNC_INTERVAL;
            if t < self.horizon {
                ctx.send_at(ctx.self_id(), t, M::wrap(GamingMsg::SyncTick));
            }
        }
    }

    fn sync_tick(&mut self, ctx: &mut Context<'_, M>) {
        if let Some(hook) = &mut self.sync {
            let bytes = SYNC_BASE_BYTES + SYNC_PER_PLAYER_BYTES * self.online;
            let seq = self.sync_seq;
            self.sync_seq += 1;
            hook(ctx, seq, bytes);
        }
        self.arm_sync(ctx);
    }

    fn sync_done(&mut self, ctx: &mut Context<'_, M>, lagged: bool) {
        if lagged {
            self.laggy_syncs += 1;
        }
        ctx.emit_fields(
            "gaming",
            "sync_done",
            &[
                ("lagged", Field::Bool(lagged)),
                ("online", Field::U64(self.online)),
            ],
        );
    }
}

impl<M: MessageEnvelope<GamingMsg>> Actor<M> for WorldActor<'_, M> {
    fn handle(&mut self, ctx: &mut Context<'_, M>, msg: M) {
        let Some(msg) = msg.unwrap() else { return };
        match msg {
            GamingMsg::Start => {
                self.arm_next_join(ctx);
                self.arm_sync(ctx);
            }
            GamingMsg::Join => self.join(ctx),
            GamingMsg::Leave => self.leave(ctx),
            GamingMsg::ZoneReady => self.zone_ready(ctx),
            GamingMsg::NodeFail(node) => self.node_fail(ctx, node),
            GamingMsg::NodeRepair(node) => self.node_repair(ctx, node),
            GamingMsg::Pressure(on) => self.set_pressure(ctx, on),
            GamingMsg::SyncTick => self.sync_tick(ctx),
            GamingMsg::SyncDone(lagged) => self.sync_done(ctx, lagged),
        }
    }
}

/// Runs the virtual world standalone on a single-actor simulation — the
/// thin wrapper equivalent of composing [`WorldActor`] into a scenario.
/// Returns the trace; every metric is derived from it.
pub fn run_gaming_standalone(
    config: &GamingConfig,
    seed: u64,
    horizon: SimTime,
) -> TraceBus {
    let mut actor = WorldActor::new(config.clone(), horizon, RngStream::new(seed, "gaming"));
    let mut sim: Simulation<'_, GamingMsg> = Simulation::new(seed);
    sim.set_horizon(horizon);
    let id = sim.add_actor(&mut actor);
    sim.schedule(SimTime::ZERO, id, GamingMsg::Start);
    sim.run();
    sim.take_trace()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_simcore::codec::Json;

    const HOUR: u64 = 3600;

    fn flashy() -> GamingConfig {
        GamingConfig {
            players: PlayerModel {
                base_rate: 0.5,
                flash: Some((
                    SimTime::from_secs(2 * HOUR),
                    SimDuration::from_hours(1),
                    4.0,
                )),
                ..PlayerModel::default()
            },
            ..GamingConfig::default()
        }
    }

    #[test]
    fn standalone_run_admits_players_and_scales_zones() {
        let trace = run_gaming_standalone(&flashy(), 7, SimTime::from_secs(6 * HOUR));
        assert!(trace.count("gaming", "join") > 100);
        assert!(trace.count("gaming", "leave") > 0);
        assert!(trace.count("gaming", "zone_up") > 0, "flash crowd must trigger scale-up");
    }

    #[test]
    fn standalone_run_is_deterministic() {
        let a = run_gaming_standalone(&flashy(), 11, SimTime::from_secs(6 * HOUR));
        let b = run_gaming_standalone(&flashy(), 11, SimTime::from_secs(6 * HOUR));
        assert_eq!(a.to_json_string(), b.to_json_string());
    }

    #[test]
    fn static_world_overloads_under_flash_crowd() {
        let mut config = GamingConfig {
            provisioning: ZoneProvisioning::Static { zones: 4 },
            ..flashy()
        };
        // Steady state sits below the watermark, so the overload window is
        // the flash crowd and its drain — start AND end land in the trace.
        config.players.base_rate = 0.2;
        let trace = run_gaming_standalone(&config, 1, SimTime::from_secs(6 * HOUR));
        assert!(trace.count("gaming", "reject") > 0);
        let starts = trace.count("gaming", "overload_start");
        let ends = trace.count("gaming", "overload_end");
        assert!(starts > 0, "flash crowd must overload 4 static zones");
        assert!(ends == starts || ends + 1 == starts, "starts {starts} ends {ends}");
        let overload_secs: f64 = trace
            .select("gaming", "overload_end")
            .iter()
            .filter_map(|e| match e.payload.get("secs") {
                Some(Json::Float(s)) => Some(*s),
                _ => None,
            })
            .sum();
        assert!(overload_secs > 0.0);
    }

    #[test]
    fn zone_failures_disconnect_overflow_players() {
        let config = GamingConfig {
            provisioning: ZoneProvisioning::Static { zones: 3 },
            ..flashy()
        };
        let horizon = SimTime::from_secs(4 * HOUR);
        let mut actor = WorldActor::new(config, horizon, RngStream::new(5, "gaming"));
        let mut sim: Simulation<'_, GamingMsg> = Simulation::new(5);
        sim.set_horizon(horizon);
        let id = sim.add_actor(&mut actor);
        sim.schedule(SimTime::ZERO, id, GamingMsg::Start);
        // Kill two of three zones mid-flash, repair one later.
        sim.schedule(SimTime::from_secs(5 * HOUR / 2), id, GamingMsg::NodeFail(0));
        sim.schedule(SimTime::from_secs(5 * HOUR / 2), id, GamingMsg::NodeFail(1));
        sim.schedule(SimTime::from_secs(3 * HOUR), id, GamingMsg::NodeRepair(0));
        sim.run();
        let trace = sim.take_trace();
        drop(sim);

        assert_eq!(trace.count("gaming", "zone_fail"), 2);
        assert_eq!(trace.count("gaming", "zone_repair"), 1);
        assert!(
            trace.count("gaming", "disconnect") > 0,
            "losing 2/3 zones at peak must disconnect players"
        );
    }

    #[test]
    fn pressure_shrinks_capacity() {
        let config = GamingConfig {
            provisioning: ZoneProvisioning::Static { zones: 2 },
            ..flashy()
        };
        let horizon = SimTime::from_secs(4 * HOUR);
        let mut actor = WorldActor::new(config, horizon, RngStream::new(2, "gaming"));
        let mut sim: Simulation<'_, GamingMsg> = Simulation::new(2);
        sim.set_horizon(horizon);
        let id = sim.add_actor(&mut actor);
        sim.schedule(SimTime::ZERO, id, GamingMsg::Start);
        sim.schedule(SimTime::from_secs(2 * HOUR), id, GamingMsg::Pressure(true));
        sim.run();
        // With capacity shrunk during the flash window, the door closes.
        assert!(sim.trace().count("gaming", "reject") > 0);
    }
}
