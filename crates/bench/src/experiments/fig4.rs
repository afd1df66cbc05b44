//! Figure 4 — the online-gaming functional architecture, measured:
//! Virtual World elasticity, Gaming Analytics (implicit ties + toxicity),
//! and Procedural Content Generation throughput. The PCG `inst/s` column is
//! wall-clock; every other column is seed-deterministic.

use crate::f;
use mcs::prelude::*;
use std::time::Instant;

/// Figure 4 as an [`Experiment`].
pub struct Fig4GamingEcosystem;

/// One simulated patch day (a x3 flash crowd for 2 h) under each of the
/// figure's three zone provisionings, in row order.
fn virtual_world(seed: u64) -> Vec<(&'static str, WorldOutcome)> {
    let model = PlayerModel {
        base_rate: 0.8,
        amplitude: 0.6,
        period: SimDuration::from_hours(24),
        flash: Some((SimTime::from_secs(6 * 3600), SimDuration::from_hours(2), 3.0)),
    };
    let day = SimTime::from_secs(86_400);
    [
        ("static-small", ZoneProvisioning::Static { zones: 12 }),
        ("static-peak", ZoneProvisioning::Static { zones: 80 }),
        (
            "elastic",
            ZoneProvisioning::Elastic {
                min_zones: 4,
                max_zones: 80,
                high_watermark: 0.8,
                low_watermark: 0.3,
                boot_delay: SimDuration::from_secs(90),
            },
        ),
    ]
    .into_iter()
    .map(|(name, provisioning)| {
        let config = GamingConfig { players: model.clone(), provisioning };
        (name, simulate_world(&config, day, seed))
    })
    .collect()
}

impl Experiment for Fig4GamingEcosystem {
    fn name(&self) -> &'static str {
        "fig4_gaming_ecosystem"
    }

    fn run(&self, seed: u64) -> Report {
        let mut report =
            Report::new(self.name(), "Figure 4 — online gaming ecosystem").with_seed(seed);

        // Virtual World: the §6.3 claim — elastic hosting admits the flash
        // crowd at a fraction of the static peak cost.
        let rows = virtual_world(seed)
            .into_iter()
            .map(|(name, out)| {
                vec![
                    name.into(),
                    out.admitted.to_string(),
                    out.rejected.to_string(),
                    f(out.rejection_rate * 100.0, 2),
                    f(out.peak_concurrent, 0),
                    f(out.zone_hours, 0),
                ]
            })
            .collect();
        report = report.with_section(
            Section::new("Virtual World: patch-day flash crowd (x3 for 2 h)").table(
                &["provisioning", "admitted", "rejected", "reject-%", "peak-online", "zone-hours"],
                rows,
            ),
        );

        // Gaming Analytics: implicit social structure and toxicity.
        let mut rows = Vec::new();
        for (label, party_probability) in
            [("strong parties", 0.8), ("weak parties", 0.4), ("matchmaking only", 0.0)]
        {
            let population = PopulationModel { party_probability, ..Default::default() };
            let log = generate_matches(&population, 20_000, seed.wrapping_add(1));
            let graph = implicit_social_graph(&log, population.players, 3);
            let f1 = community_recovery_f1(&log, population.players, 10);
            let (precision, recall) = toxicity_detector(&log, population.players, 0.5);
            rows.push(vec![
                label.into(),
                graph.edge_count().to_string(),
                f(f1, 3),
                f(precision, 2),
                f(recall, 2),
            ]);
        }
        report = report.with_section(
            Section::new("Gaming Analytics: implicit ties from match logs (C5)")
                .table(&["population", "tie-edges", "community-F1", "tox-P", "tox-R"], rows),
        );

        // Procedural Content Generation: verified instances per second.
        let mut rows = Vec::new();
        for scramble in [10usize, 25, 50] {
            let generator = PuzzleGenerator { side: 3, scramble_moves: scramble };
            let mut rng = RngStream::new(seed, "fig4-pcg");
            let t = Instant::now();
            let batch = generator.generate_batch(40, 400_000, &mut rng);
            let secs = t.elapsed().as_secs_f64();
            let mean_difficulty =
                batch.iter().map(|(_, d)| *d as f64).sum::<f64>() / batch.len() as f64;
            rows.push(vec![
                scramble.to_string(),
                batch.len().to_string(),
                f(mean_difficulty, 1),
                f(batch.len() as f64 / secs.max(1e-9), 0),
            ]);
        }
        report = report.with_section(
            Section::new("Procedural Content Generation (POGGI-style)")
                .table(&["scramble-depth", "instances", "mean-difficulty", "inst/s"], rows),
        );

        // Social Meta-Gaming: tournament spectators and stream provisioning.
        let mut rows = Vec::new();
        for rounds in [3u32, 5, 7] {
            let mut rng = RngStream::new(seed, "fig4-meta");
            let t = Tournament::seeded(rounds, &mut rng);
            let out = t.play(50.0, &mut rng);
            let (static_cost, elastic_cost) = stream_capacity_plan(&out, 1_000);
            rows.push(vec![
                format!("{} players", 1u32 << rounds),
                out.matches.len().to_string(),
                out.peak_spectators.to_string(),
                out.total_spectators.to_string(),
                format!("{static_cost} vs {elastic_cost}"),
            ]);
        }
        report.with_section(
            Section::new("Social Meta-Gaming: tournament streaming")
                .table(
                    &["bracket", "matches", "peak-viewers", "total-viewers", "server-rounds s/e"],
                    rows,
                )
                .line(
                    "shape check: elastic hosting admits everyone at far fewer zone-hours than the\n\
                     static peak; social signal strength controls community recovery; deeper scrambles\n\
                     yield harder (but always solvable) content.",
                ),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the seed-42 Virtual World rows exactly (f64 included), so a
    /// change of world model must reproduce them bit for bit.
    #[test]
    fn virtual_world_rows_are_pinned_at_seed_42() {
        let rows = virtual_world(42);
        let pinned: [(&str, u64, u64, f64, f64); 3] = [
            ("static-small", 49_408, 37_959, 1200.0, 288.0),
            ("static-peak", 87_358, 0, 6884.0, 1920.0),
            ("elastic", 87_358, 0, 6884.0, 985.148_079_957_493_8),
        ];
        assert_eq!(rows.len(), pinned.len());
        for ((name, out), (want_name, admitted, rejected, peak, zone_hours)) in
            rows.iter().zip(pinned)
        {
            assert_eq!(*name, want_name);
            assert_eq!(
                (out.admitted, out.rejected, out.peak_concurrent, out.zone_hours),
                (admitted, rejected, peak, zone_hours),
                "{name}: {out:?}"
            );
        }
        // The figure's claim: elastic turns fewer players away than the
        // small static deployment, at fewer zone-hours than the peak one.
        let (small, peak, elastic) = (&rows[0].1, &rows[1].1, &rows[2].1);
        assert!(elastic.rejected < small.rejected, "{elastic:?} vs {small:?}");
        assert!(elastic.zone_hours < peak.zone_hours, "{elastic:?} vs {peak:?}");
    }
}
