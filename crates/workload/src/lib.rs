//! Synthetic Tier-1 ISP workload generation.
//!
//! The paper's experiments (§3.1, §4) use BGP data from a Tier-1 ISP:
//! ~416K prefixes (~76% from peers), >1000 routers of which <10% are
//! peering routers, 25 peer ASes with ~8 peering points each, 10.2 best
//! AS-level routes per peer prefix, 27 clusters with 2 TRRs each, and a
//! two-week update trace. That data is proprietary, so this crate
//! builds the closest synthetic equivalent, calibrated to every
//! statistic the paper reports (the substitution is documented in
//! DESIGN.md §2):
//!
//! * [`tier1`] — seeded topology + route-table model.
//! * [`churn`] — a two-week-style update trace with cross-PoP arrival
//!   jitter (the racing the paper identifies as the cause of TBRR's
//!   extra client updates, §4.2).
//! * [`mrt`] — an RFC 6396 MRT reader/writer (BGP4MP + TABLE_DUMP_V2),
//!   replaying RouteViews/RIPE-RIS-style dumps through the pipeline.
//! * [`regen`] — the *route regenerator* (paper §4: "a simple pseudo
//!   BGP speaker ... which uses the MRT-format routing trace to direct
//!   BGP feeds towards our implementation").
//! * [`specs`] — builders mapping a model onto ABRR/TBRR [`abrr::NetworkSpec`]s.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod mrt;
pub mod regen;
pub mod specs;
pub mod tier1;

pub use churn::{ChurnConfig, TraceEvent, TraceRecord};
pub use tier1::{PrefixKind, PrefixPlan, RoutePlan, Tier1Config, Tier1Model};
