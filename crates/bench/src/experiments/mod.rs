//! Every figure and table of the paper as an [`Experiment`]
//! (`mcs::experiment::Experiment`): the binaries in `src/bin/` are thin
//! wrappers over these types, and [`all`] is the registry that downstream
//! tooling (tests, sweeps) iterates.

use mcs::experiment::Experiment;

mod chaos;
mod dag;
mod ecosystem;
mod fig1;
mod full;
mod locality;
pub mod resilience;
pub mod scale;
mod fig2;
mod fig3;
mod fig4;
mod fig5;
mod table1;
mod table2;
mod table3;
mod table4;
mod table5;

pub use chaos::ChaosSweep;
pub use dag::DagPortfolioExperiment;
pub use ecosystem::EcosystemComposed;
pub use full::EcosystemFull;
pub use locality::LocalityContention;
pub use fig1::Fig1BigdataEcosystem;
pub use fig2::Fig2EvolutionTimeline;
pub use fig3::Fig3DatacenterRefarch;
pub use fig4::Fig4GamingEcosystem;
pub use fig5::Fig5FaasRefarch;
pub use resilience::ResilienceAblation;
pub use scale::ScaleStress;
pub use table1::Table1Methods;
pub use table2::Table2Principles;
pub use table3::Table3Challenges;
pub use table4::Table4UseCases;
pub use table5::Table5Paradigms;

/// The full registry: one entry per paper artifact, in paper order.
pub fn all() -> Vec<Box<dyn Experiment>> {
    vec![
        Box::new(Fig1BigdataEcosystem),
        Box::new(Fig2EvolutionTimeline),
        Box::new(Fig3DatacenterRefarch),
        Box::new(Fig4GamingEcosystem),
        Box::new(Fig5FaasRefarch),
        Box::new(Table1Methods),
        Box::new(Table2Principles),
        Box::new(Table3Challenges),
        Box::new(Table4UseCases),
        Box::new(Table5Paradigms),
        Box::new(EcosystemComposed),
        Box::new(EcosystemFull),
        Box::new(ResilienceAblation),
        Box::new(LocalityContention),
        Box::new(ChaosSweep),
        Box::new(ScaleStress),
        Box::new(DagPortfolioExperiment),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn registry_names_are_unique_and_stable() {
        let names: Vec<&str> = all().iter().map(|e| e.name()).collect();
        let mut deduped = names.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), names.len(), "duplicate experiment name");
        assert!(names.contains(&"table5_paradigms"));
        assert!(names.contains(&"ecosystem_composed"));
        assert!(names.contains(&"ecosystem_full"));
        assert!(names.contains(&"resilience_ablation"));
        assert!(names.contains(&"locality_contention"));
        assert!(names.contains(&"chaos_sweep"));
        assert!(names.contains(&"scale_stress"));
        assert!(names.contains(&"dag_portfolio"));
        assert_eq!(names.len(), 17);

        // Every binary is a thin wrapper over one registered experiment.
        let bin_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
        let bins: BTreeSet<String> = std::fs::read_dir(&bin_dir)
            .expect("src/bin is readable")
            .map(|entry| entry.expect("src/bin entry").path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "rs"))
            .map(|path| path.file_stem().unwrap().to_string_lossy().into_owned())
            .collect();
        let registered: BTreeSet<String> = names.iter().map(|&n| n.to_owned()).collect();
        assert_eq!(bins, registered, "src/bin and experiments::all() disagree");
    }
}
