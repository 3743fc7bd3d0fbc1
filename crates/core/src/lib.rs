//! # abrr — Address-Based Route Reflection
//!
//! A faithful implementation of the protocols of *"Address-based Route
//! Reflection"* (Chen, Shaikh, Wang, Francis — ACM CoNEXT 2011), plus
//! the baselines it is evaluated against:
//!
//! * **ABRR** — the paper's contribution: route reflectors own
//!   *address partitions* instead of router clusters; every client
//!   peers with every ARR; ARRs advertise all *best AS-level routes*
//!   (decision steps 1–4 survivors) via add-paths, emulating full-mesh
//!   iBGP semantics with a single reflection hop.
//! * **TBRR** — traditional topology-based route reflection
//!   (RFC 4456), in both single-path and multi-path (Appendix A.3)
//!   variants.
//! * **Full-mesh iBGP** — the correctness oracle.
//!
//! All three run as [`BgpNode`] state machines over the deterministic
//! [`netsim`] simulator; [`audit`] checks the paper's §2.3 correctness
//! claims (no oscillations, no forwarding loops, no path
//! inefficiencies) against actual simulation state. The oscillation
//! gadgets live as scenario files in the `scenario` crate's corpus
//! (`examples/scenarios/`).
//!
//! ## Quick start
//!
//! ```
//! use abrr::prelude::*;
//! use std::sync::Arc;
//!
//! // Two PoPs, two routers each, ABRR with 2 APs served by routers 1 & 2.
//! let view = igp::PopTopologyBuilder::new(2, 2).build();
//! let mut spec = NetworkSpec::full_mesh(&view.topo, Asn(65000));
//! spec.mode = Mode::Abrr;
//! spec.ap_map = Some(ApMap::uniform(2));
//! spec.arrs.insert(ApId(0), vec![RouterId(1)]);
//! spec.arrs.insert(ApId(1), vec![RouterId(2)]);
//! let spec = Arc::new(spec);
//! let mut sim = build_sim(spec.clone());
//!
//! // Router 3 learns 10.0.0.0/8 from AS 7018 and injects it.
//! let prefix: Ipv4Prefix = "10.0.0.0/8".parse().unwrap();
//! sim.schedule_external(0, RouterId(3), ExternalEvent::EbgpAnnounce {
//!     prefix,
//!     peer_as: Asn(7018),
//!     peer_addr: 9001,
//!     attrs: Arc::new(PathAttributes::ebgp(
//!         AsPath::sequence([Asn(7018)]), NextHop(9001))),
//! });
//! let outcome = sim.run_to_quiescence();
//! assert!(outcome.quiesced);
//! // Every router selected the route; exit is router 3.
//! for (id, node) in sim.nodes() {
//!     let sel = node.selected(&prefix).expect("selected");
//!     assert_eq!(sel.exit_router(), RouterId(3), "router {id:?}");
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod index;
pub mod msg;
pub mod node;
pub mod roles;
pub mod spec;
pub mod wire;

pub use index::SharedIndex;
pub use msg::{BgpMsg, ExternalEvent, SessionMsg, WireFrame};
pub use node::{BgpNode, Selected};
pub use obs::counters::UpdateCounters;
pub use spec::{build_sim, AbrrLoopPrevention, ClusterSpec, LatencyModel, Mode, NetworkSpec};

/// Convenient glob-import surface for examples and experiments.
pub mod prelude {
    pub use crate::audit;
    pub use crate::msg::{BgpMsg, ExternalEvent, SessionMsg, WireFrame};
    pub use crate::node::{BgpNode, Selected};
    pub use crate::spec::{
        build_sim, AbrrLoopPrevention, ClusterSpec, LatencyModel, Mode, NetworkSpec,
    };
    pub use crate::UpdateCounters;
    pub use bgp_rib::{DecisionConfig, MedMode};
    pub use bgp_types::{ApId, ApMap, AsPath, Asn, Ipv4Prefix, NextHop, PathAttributes, RouterId};
    pub use netsim::{RunLimits, RunOutcome, Sim};
}
