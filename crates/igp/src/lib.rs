//! IGP substrate: the intra-AS topology and shortest-path machinery.
//!
//! BGP decision step 6 ("lowest IGP metric to the BGP next hop", paper
//! Table 2) needs an IGP. This crate provides a weighted undirected
//! graph over routers, Dijkstra SPF with deterministic tie-breaking,
//! an all-pairs distance/next-hop cache, and a builder for the
//! PoP-structured topologies the paper describes ISPs engineering
//! ("intra-PoP distances are always shorter than inter-PoP distances",
//! §1) — plus the ability to *violate* that rule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
pub mod pop;
pub mod spf;

pub use graph::Topology;
pub use pop::{PopTopologyBuilder, PopView};
pub use spf::{IgpOracle, SpfResult};
