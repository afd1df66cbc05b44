//! The Virtual World function of the Figure 4 gaming architecture.
//!
//! Players join and leave over a diurnal pattern with flash crowds (a patch
//! release, a streamer raid). Zones host a bounded number of players; a
//! static deployment rejects overflow, while an elastic deployment
//! (§6.3: "can elastically scale with the ups and downs of active players")
//! spins up zone instances with a provisioning delay.

use mcs_simcore::dist::{Dist, Sample};
use mcs_simcore::metrics::TimeWeighted;
use mcs_simcore::rng::RngStream;
use mcs_simcore::time::{SimDuration, SimTime};
use mcs_workload::arrival::{ArrivalProcess, Diurnal};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
    /// Time-average concurrent players.
    pub mean_concurrent: f64,
    /// Peak concurrent players.
    pub peak_concurrent: f64,
    /// Time-average zone instances.
    pub mean_zones: f64,
    /// Zone-instance-hours used (cost proxy).
    pub zone_hours: f64,
}

/// Simulates the virtual world over `[0, horizon)`.
pub fn simulate_world(
    model: &PlayerModel,
    provisioning: ZoneProvisioning,
    zone_capacity: usize,
    horizon: SimTime,
    seed: u64,
) -> WorldOutcome {
    let mut rng = RngStream::new(seed, "virtual-world");
    let mut arrivals = Diurnal {
        base_rate: model.base_rate,
        amplitude: model.amplitude,
        period: model.period,
        flash: model.flash,
    };

    let (mut zones, min_zones, max_zones, high, low, boot) = match provisioning {
        ZoneProvisioning::Static { zones } => (zones, zones, zones, 2.0, -1.0, SimDuration::ZERO),
        ZoneProvisioning::Elastic { min_zones, max_zones, high_watermark, low_watermark, boot_delay } => {
            (min_zones, min_zones, max_zones, high_watermark, low_watermark, boot_delay)
        }
    };

    let mut online: u64 = 0;
    let mut admitted = 0u64;
    let mut rejected = 0u64;
    let mut departures: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
    let mut boots: BinaryHeap<Reverse<SimTime>> = BinaryHeap::new();
    let mut booting = 0usize;
    let mut seq = 0u64;
    let mut concurrent = TimeWeighted::new(SimTime::ZERO, 0.0);
    let mut zone_level = TimeWeighted::new(SimTime::ZERO, zones as f64);

    let mut now = SimTime::ZERO;
    while let Some(next_join) = arrivals.next_after(now, &mut rng) {
        if next_join >= horizon {
            break;
        }
        // Process departures and zone boots up to the join instant.
        while let Some(&Reverse((t, _))) = departures.peek() {
            if t > next_join {
                break;
            }
            departures.pop();
            online -= 1;
            concurrent.set(t, online as f64);
        }
        while let Some(&Reverse(t)) = boots.peek() {
            if t > next_join {
                break;
            }
            boots.pop();
            booting -= 1;
            zones += 1;
            zone_level.set(t, zones as f64);
        }
        now = next_join;

        let capacity = zones * zone_capacity;
        if (online as usize) < capacity {
            online += 1;
            admitted += 1;
            concurrent.set(now, online as f64);
            let session = session_secs(&mut rng);
            departures.push(Reverse((now + SimDuration::from_secs_f64(session), seq)));
            seq += 1;
        } else {
            rejected += 1;
        }

        // Elastic control loop, evaluated at every join.
        let occupancy = online as f64 / (zones * zone_capacity).max(1) as f64;
        if occupancy > high && zones + booting < max_zones {
            booting += 1;
            boots.push(Reverse(now + boot));
        } else if occupancy < low && zones > min_zones && booting == 0 {
            zones -= 1;
            zone_level.set(now, zones as f64);
        }
    }

    // Drain departures and boots queued after the final join so the tail
    // of the window is integrated at the true level.
    while let Some(&Reverse((t, _))) = departures.peek() {
        if t >= horizon {
            break;
        }
        departures.pop();
        online -= 1;
        concurrent.set(t, online as f64);
    }
    while let Some(&Reverse(t)) = boots.peek() {
        if t >= horizon {
            break;
        }
        boots.pop();
        zones += 1;
        zone_level.set(t, zones as f64);
    }

    let total = admitted + rejected;
    WorldOutcome {
        admitted,
        rejected,
        rejection_rate: if total == 0 { 0.0 } else { rejected as f64 / total as f64 },
        mean_concurrent: concurrent.average_until(horizon),
        peak_concurrent: concurrent.peak(),
        mean_zones: zone_level.average_until(horizon),
        zone_hours: zone_level.average_until(horizon) * horizon.as_secs_f64() / 3600.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flashy_model() -> PlayerModel {
        PlayerModel {
            base_rate: 0.5,
            amplitude: 0.5,
            period: SimDuration::from_hours(24),
            flash: Some((SimTime::from_secs(6 * 3600), SimDuration::from_hours(2), 3.0)),
        }
    }

    const DAY: u64 = 24 * 3600;

    #[test]
    fn static_world_rejects_under_flash_crowd() {
        let out = simulate_world(
            &flashy_model(),
            ZoneProvisioning::Static { zones: 8 },
            100,
            SimTime::from_secs(DAY),
            1,
        );
        assert!(out.rejection_rate > 0.05, "rejections {:?}", out.rejection_rate);
        assert!(out.peak_concurrent >= 800.0 * 0.95);
    }

    #[test]
    fn elastic_world_absorbs_flash_crowd_cheaper_at_night() {
        let elastic = simulate_world(
            &flashy_model(),
            ZoneProvisioning::Elastic {
                min_zones: 2,
                max_zones: 60,
                high_watermark: 0.8,
                low_watermark: 0.3,
                boot_delay: SimDuration::from_secs(60),
            },
            100,
            SimTime::from_secs(DAY),
            1,
        );
        let static_big = simulate_world(
            &flashy_model(),
            ZoneProvisioning::Static { zones: 60 },
            100,
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
            &model,
            ZoneProvisioning::Static { zones: 1 },
            10,
            SimTime::from_secs(3600),
            2,
        );
        assert_eq!(out.rejected, 0);
    }

    #[test]
    fn deterministic() {
        let a = simulate_world(
            &flashy_model(),
            ZoneProvisioning::Static { zones: 4 },
            50,
            SimTime::from_secs(DAY / 2),
            9,
        );
        let b = simulate_world(
            &flashy_model(),
            ZoneProvisioning::Static { zones: 4 },
            50,
            SimTime::from_secs(DAY / 2),
            9,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let out = simulate_world(
            &flashy_model(),
            ZoneProvisioning::Static { zones: 3 },
            25,
            SimTime::from_secs(DAY / 2),
            3,
        );
        assert!(out.peak_concurrent <= 75.0);
    }
}
