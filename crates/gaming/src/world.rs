//! The Virtual World function of the Figure 4 gaming architecture.
//!
//! Players join and leave over a diurnal pattern with flash crowds (a patch
//! release, a streamer raid). Zones host a bounded number of players; a
//! static deployment rejects overflow, while an elastic deployment
//! (§6.3: "can elastically scale with the ups and downs of active players")
//! spins up zone instances with a provisioning delay.
//!
//! The model runs as [`WorldActor`](crate::actor::WorldActor) on the
//! engine; this module holds its parameters and [`WorldOutcome`], the
//! reduction of a standalone run's trace.

use crate::actor::{run_gaming_standalone, GamingConfig};
use mcs_simcore::dist::{Dist, Sample};
use mcs_simcore::metrics::TimeWeighted;
use mcs_simcore::rng::RngStream;
use mcs_simcore::time::{SimDuration, SimTime};
use mcs_simcore::trace::TraceBus;

/// Deployment model of the virtual world.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ZoneProvisioning {
    /// A fixed number of zone instances (self-hosted studio hardware).
    Static {
        /// Zone instances available.
        zones: usize,
    },
    /// Elastic: instances added when occupancy crosses the high watermark,
    /// removed when it falls below the low watermark.
    Elastic {
        /// Start/minimum instances.
        min_zones: usize,
        /// Maximum instances (cloud budget cap).
        max_zones: usize,
        /// Scale up above this mean occupancy fraction.
        high_watermark: f64,
        /// Scale down below this mean occupancy fraction.
        low_watermark: f64,
        /// Boot delay of a new zone instance.
        boot_delay: SimDuration,
    },
}

/// Parameters of the player population.
#[derive(Debug, Clone, PartialEq)]
pub struct PlayerModel {
    /// Mean arrival rate, players/second.
    pub base_rate: f64,
    /// Diurnal amplitude (0–1).
    pub amplitude: f64,
    /// Day length.
    pub period: SimDuration,
    /// Optional flash crowd: (start, duration, multiplier).
    pub flash: Option<(SimTime, SimDuration, f64)>,
}

impl Default for PlayerModel {
    fn default() -> Self {
        PlayerModel {
            base_rate: 1.0,
            amplitude: 0.6,
            period: SimDuration::from_hours(24),
            flash: None,
        }
    }
}

/// Session-duration distribution, seconds (median ~22 min).
const SESSION: Dist = Dist::LogNormal { mu: 7.2, sigma: 0.8 };

/// Draws one player's session length, seconds, clamped to [30 s, 12 h].
pub(crate) fn session_secs(rng: &mut RngStream) -> f64 {
    SESSION.sample(rng).clamp(30.0, 12.0 * 3600.0)
}

/// What one virtual-world run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct WorldOutcome {
    /// Players who joined successfully.
    pub admitted: u64,
    /// Players turned away (no zone capacity).
    pub rejected: u64,
    /// Rejection fraction.
    pub rejection_rate: f64,
    /// Peak concurrent players.
    pub peak_concurrent: f64,
    /// Zone-instance-hours used (cost proxy).
    pub zone_hours: f64,
}

impl WorldOutcome {
    /// Reduces the trace of a standalone [`WorldActor`] run over
    /// `[0, horizon)` in one ordered pass. The zone level starts at
    /// `provisioning`'s initial zone count and steps on every `zone_up` and
    /// `zone_down`, in emission order, so a same-instant pair keeps its
    /// order.
    ///
    /// # Panics
    /// Panics on a streaming trace, which retains no records to reduce.
    ///
    /// [`WorldActor`]: crate::actor::WorldActor
    pub fn from_trace(trace: &TraceBus, provisioning: ZoneProvisioning, horizon: SimTime) -> Self {
        assert!(
            !trace.is_streaming(),
            "WorldOutcome::from_trace needs a full-retention trace; a streaming bus retains no records"
        );
        let initial_zones = match provisioning {
            ZoneProvisioning::Static { zones } => zones,
            ZoneProvisioning::Elastic { min_zones, .. } => min_zones,
        };
        let symbol = |name: &str| trace.interner().lookup(name);
        let gaming = symbol("gaming");
        let [join, reject, zone_up, zone_down] =
            ["join", "reject", "zone_up", "zone_down"].map(symbol);

        let (mut admitted, mut rejected, mut peak_concurrent) = (0u64, 0u64, 0.0f64);
        let mut zones = TimeWeighted::new(SimTime::ZERO, initial_zones as f64);
        for e in trace.events() {
            if e.at >= horizon || Some(e.component) != gaming {
                continue;
            }
            let event = Some(e.event);
            if event == join {
                admitted += 1;
                peak_concurrent = peak_concurrent.max(e.field_f64("online").unwrap_or(0.0));
            } else if event == reject {
                rejected += 1;
            } else if event == zone_up {
                zones.add(e.at, 1.0);
            } else if event == zone_down {
                zones.add(e.at, -1.0);
            }
        }

        let total = admitted + rejected;
        WorldOutcome {
            admitted,
            rejected,
            rejection_rate: if total == 0 { 0.0 } else { rejected as f64 / total as f64 },
            peak_concurrent,
            zone_hours: zones.average_until(horizon) * horizon.as_secs_f64() / 3600.0,
        }
    }
}

/// Simulates the virtual world over `[0, horizon)` on a standalone
/// [`WorldActor`](crate::actor::WorldActor) and reduces its trace. It draws
/// from the same `"gaming"` stream as a composed scenario's world.
pub fn simulate_world(config: &GamingConfig, horizon: SimTime, seed: u64) -> WorldOutcome {
    let trace = run_gaming_standalone(config, seed, horizon);
    WorldOutcome::from_trace(&trace, config.provisioning, horizon)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_simcore::trace::StreamConfig;

    /// A diurnal population at 0.5 players/s with a x3 flash crowd for 2 h
    /// from 06:00.
    fn flashy(provisioning: ZoneProvisioning) -> GamingConfig {
        let players = PlayerModel {
            base_rate: 0.5,
            amplitude: 0.5,
            period: SimDuration::from_hours(24),
            flash: Some((SimTime::from_secs(6 * 3600), SimDuration::from_hours(2), 3.0)),
        };
        GamingConfig { players, provisioning }
    }

    const DAY: u64 = 24 * 3600;

    #[test]
    fn static_world_rejects_under_flash_crowd() {
        let out = simulate_world(
            &flashy(ZoneProvisioning::Static { zones: 8 }),
            SimTime::from_secs(DAY),
            1,
        );
        assert!(out.rejection_rate > 0.05, "rejections {:?}", out.rejection_rate);
        assert!(out.peak_concurrent >= 800.0 * 0.95);
    }

    #[test]
    fn elastic_world_absorbs_flash_crowd_cheaper_at_night() {
        let elastic = simulate_world(
            &flashy(ZoneProvisioning::Elastic {
                min_zones: 2,
                max_zones: 60,
                high_watermark: 0.8,
                low_watermark: 0.3,
                boot_delay: SimDuration::from_secs(60),
            }),
            SimTime::from_secs(DAY),
            1,
        );
        let static_big = simulate_world(
            &flashy(ZoneProvisioning::Static { zones: 60 }),
            SimTime::from_secs(DAY),
            1,
        );
        assert!(
            elastic.rejection_rate < 0.05,
            "elastic rejections {}",
            elastic.rejection_rate
        );
        assert!(
            elastic.zone_hours < static_big.zone_hours * 0.7,
            "elastic {} vs static {} zone-hours",
            elastic.zone_hours,
            static_big.zone_hours
        );
    }

    #[test]
    fn no_players_no_rejections() {
        let model = PlayerModel { base_rate: 1e-9, ..Default::default() };
        let out = simulate_world(
            &GamingConfig { players: model, provisioning: ZoneProvisioning::Static { zones: 1 } },
            SimTime::from_secs(3600),
            2,
        );
        assert_eq!(out.rejected, 0);
    }

    #[test]
    fn deterministic() {
        let run = || {
            simulate_world(
                &flashy(ZoneProvisioning::Static { zones: 2 }),
                SimTime::from_secs(DAY / 2),
                9,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let out = simulate_world(
            &flashy(ZoneProvisioning::Static { zones: 3 }),
            SimTime::from_secs(DAY / 2),
            3,
        );
        assert!(out.rejected > 0, "3 zones must turn players away");
        assert!(out.peak_concurrent <= 300.0);
    }

    #[test]
    #[should_panic(expected = "full-retention trace")]
    fn from_trace_rejects_a_streaming_trace() {
        let trace = TraceBus::streaming(StreamConfig::default());
        WorldOutcome::from_trace(
            &trace,
            ZoneProvisioning::Static { zones: 1 },
            SimTime::from_secs(3600),
        );
    }
}
