//! # mcs-net — the network as a first-class resource
//!
//! The paper's ecosystem pitch (C4 heterogeneity, the RM&S challenges)
//! treats communication as a scarce *shared* resource, yet most simulators —
//! and, until this crate, this workspace — model transfers as fixed delays:
//! a shuffle takes `bytes / nominal_bandwidth` no matter what else is on the
//! wire, and a "partition" is a time window rather than a hole in the
//! fabric. `mcs-net` replaces that with a deterministic **flow-level
//! network model** in the SimGrid tradition:
//!
//! - [`topology::NetTopology`] — a two-tier rack/spine fabric with per-link
//!   capacity and latency; partitions cut a node's access link, gray
//!   failures degrade it (both reference-counted).
//! - [`flow::max_min_rates`] — max-min fair-share bandwidth allocation by
//!   progressive filling, recomputed on every flow start/finish and fault
//!   (the actor keeps one solver and reuses its buffers).
//! - [`actor::NetActor`] — the model as an [`Actor`] on the shared
//!   [`Simulation`]: tenants send [`actor::NetMsg::Transfer`] requests
//!   tagged with their identity, and a scenario-installed completion hook
//!   routes each [`actor::FlowDone`] back to the owning subsystem.
//!
//! Transfer times are *emergent*: a bigdata shuffle, a FaaS invocation
//! payload, an RMS checkpoint restore, and a gaming state-sync burst that
//! cross the same uplink slow each other down, and every flow records its
//! stall (actual minus uncontended-ideal seconds) on the trace bus.
//!
//! ```
//! use mcs_net::prelude::*;
//! use mcs_simcore::engine::Simulation;
//! use mcs_simcore::time::{SimDuration, SimTime};
//!
//! const MB: f64 = 1024.0 * 1024.0;
//! let topo = NetTopology::new(
//!     8, 4, 100.0 * MB, 400.0 * MB,
//!     SimDuration::from_micros(500), SimDuration::from_millis(2),
//! );
//! let mut sim: Simulation<'_, NetMsg> = Simulation::new(42);
//! let net = sim.add_actor(NetActor::new(topo));
//! sim.schedule(SimTime::ZERO, net, NetMsg::Transfer(TransferReq {
//!     src: 0, dst: 5, bytes: (64.0 * MB) as u64,
//!     tag: FlowTag { owner: FlowOwner::Test, id: 0 },
//! }));
//! sim.run();
//! assert_eq!(sim.trace().count("net", "flow_end"), 1);
//! ```
//!
//! [`Actor`]: mcs_simcore::engine::Actor
//! [`Simulation`]: mcs_simcore::engine::Simulation

pub mod actor;
pub mod flow;
pub mod topology;

pub use actor::{
    CompletionHook, FlowDone, FlowOwner, FlowTag, NetActor, NetFault, NetMsg, TransferReq,
    NET_COMPONENT,
};
pub use flow::max_min_rates;
pub use topology::{LinkId, NetTopology};

/// Convenient glob-import surface: `use mcs_net::prelude::*;`.
pub mod prelude {
    pub use crate::actor::{FlowDone, FlowOwner, FlowTag, NetActor, NetFault, NetMsg, TransferReq};
    pub use crate::topology::NetTopology;
}
