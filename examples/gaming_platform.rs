//! Online gaming (§6.3, Figure 4): elastic virtual-world zones, implicit
//! social analytics, and procedural content generation.
//!
//! Run with: `cargo run --example gaming_platform`

use mcs::prelude::*;

fn main() {
    println!("== online gaming platform (Fig. 4 functions) ==");

    // Virtual World: a patch-day flash crowd, static vs elastic hosting.
    let model = PlayerModel {
        base_rate: 0.8,
        amplitude: 0.6,
        period: SimDuration::from_hours(24),
        flash: Some((SimTime::from_secs(6 * 3600), SimDuration::from_hours(2), 3.0)),
    };
    let day = SimTime::from_secs(86_400);
    let world = |provisioning| {
        simulate_world(&GamingConfig { players: model.clone(), provisioning }, day, 1)
    };
    let static_small = world(ZoneProvisioning::Static { zones: 12 });
    let static_big = world(ZoneProvisioning::Static { zones: 80 });
    let elastic = world(ZoneProvisioning::Elastic {
        min_zones: 4,
        max_zones: 80,
        high_watermark: 0.8,
        low_watermark: 0.3,
        boot_delay: SimDuration::from_secs(90),
    });
    println!(
        "{:<16} {:>10} {:>10} {:>12} {:>12}",
        "virtual world", "admitted", "rejected", "peak online", "zone-hours"
    );
    for (name, out) in [
        ("static (small)", &static_small),
        ("static (big)", &static_big),
        ("elastic", &elastic),
    ] {
        println!(
            "{:<16} {:>10} {:>10} {:>12.0} {:>12.0}",
            name, out.admitted, out.rejected, out.peak_concurrent, out.zone_hours
        );
    }

    // Gaming Analytics: recover communities and toxicity from match logs.
    let population = PopulationModel::default();
    let log = generate_matches(&population, 20_000, 2);
    let graph = implicit_social_graph(&log, population.players, 3);
    let f1 = community_recovery_f1(&log, population.players, 10);
    let (precision, recall) = toxicity_detector(&log, population.players, 0.5);
    println!(
        "analytics: implicit tie graph {} edges; community recovery F1 {:.2}; toxicity P {:.2} / R {:.2}",
        graph.edge_count(),
        f1,
        precision,
        recall,
    );

    // Procedural Content Generation: verified-solvable puzzle instances.
    let generator = PuzzleGenerator { side: 3, scramble_moves: 30 };
    let mut rng = RngStream::new(3, "pcg");
    let batch = generator.generate_batch(25, 2_000_000, &mut rng);
    let solvable = batch.iter().filter(|(p, _)| p.is_solvable()).count();
    let mean_difficulty =
        batch.iter().map(|(_, d)| *d as f64).sum::<f64>() / batch.len() as f64;
    println!(
        "PCG: {} instances, {} solvable (guaranteed), mean optimal solution {:.1} moves",
        batch.len(),
        solvable,
        mean_difficulty,
    );

    // Social Meta-Gaming: a 32-player tournament and its stream bill.
    let mut rng = RngStream::new(4, "meta");
    let tournament = Tournament::seeded(5, &mut rng);
    let outcome = tournament.play(50.0, &mut rng);
    let (static_cost, elastic_cost) = stream_capacity_plan(&outcome, 1_000);
    println!(
        "meta-gaming: {} matches, champion p{}, peak {} viewers; stream cost {} static vs {} elastic server-rounds",
        outcome.matches.len(),
        outcome.champion,
        outcome.peak_spectators,
        static_cost,
        elastic_cost,
    );
}
