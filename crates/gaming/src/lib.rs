//! # mcs-gaming — the online-gaming ecosystem of Figure 4
//!
//! The four functions of the paper's gaming reference
//! architecture, as working code:
//!
//! - **Virtual World** ([`world`]): diurnal player populations with flash
//!   crowds, static vs elastic zone provisioning (§6.3: "can small studios
//!   entertain one billion people with near-zero up-front cost?").
//! - **Gaming Analytics** ([`social`]): implicit social-tie graphs recovered
//!   from match logs \[48\]\[82\], community detection, and toxicity detection
//!   \[35\] with measurable precision/recall.
//! - **Social Meta-Gaming** ([`metagame`]): tournaments, skill-driven
//!   brackets, and spectator-stream capacity planning \[49\]\[50\].
//! - **Procedural Content Generation** ([`pcg`]): POGGI-style puzzle
//!   instances \[166\] with guaranteed solvability and measured difficulty.
//!
//! ## Example
//! ```
//! use mcs_gaming::pcg::PuzzleGenerator;
//! use mcs_simcore::rng::RngStream;
//!
//! let generator = PuzzleGenerator { side: 3, scramble_moves: 20 };
//! let mut rng = RngStream::new(1, "example");
//! let puzzle = generator.generate(&mut rng);
//! assert!(puzzle.is_solvable());
//! ```

pub mod actor;
pub mod metagame;
pub mod pcg;
pub mod social;
pub mod world;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::actor::{
        run_gaming_standalone, GamingConfig, GamingMsg, WorldActor,
    };
    pub use crate::metagame::{
        stream_capacity_plan, PlayedMatch, Tournament, TournamentOutcome,
    };
    pub use crate::pcg::{PuzzleGenerator, PuzzleInstance};
    pub use crate::social::{
        community_recovery_f1, generate_matches, implicit_social_graph, toxicity_detector,
        MatchLog, MatchRecord, PopulationModel,
    };
    pub use crate::world::{simulate_world, PlayerModel, WorldOutcome, ZoneProvisioning};
}
