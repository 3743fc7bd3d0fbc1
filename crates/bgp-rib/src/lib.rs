//! RIBs and the BGP best-path decision process.
//!
//! Two entry points matter to the paper:
//!
//! * [`decision::best_path`] — the full RFC 4271 §9.1.2.2 process
//!   (paper Table 2, steps 1–8), run by clients and by traditional
//!   TRRs.
//! * [`decision::best_as_level`] — steps 1–4 only, producing the set of
//!   routes "that tie for best in terms of AS-level criteria" (paper
//!   §2.1). This is what an ARR computes and advertises to all clients
//!   via add-paths. Vendor-specific steps (Cisco weight, locally
//!   originated) are deliberately *not* part of this computation, per
//!   the paper.
//!
//! The RIB structures ([`RibInColumn`], [`LocColumn`], [`AdjRibOut`])
//! follow the conceptual RIBs of RFC 4271 §3.2: the first two are
//! columns over a network's one [`PrefixIndex`], and [`AdjRibOut`] is
//! organized into *peer groups* because the paper's RIB-Out accounting
//! (Appendix A) assumes one RIB-Out copy per peer group. [`compat`]
//! holds what only the benchmark package still names.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compat;
pub mod decision;
pub mod rib;
pub mod store;

pub use compat::{AdjRibIn, CandidateBatch, LocRib};
pub use decision::{
    best_as_level, best_as_level_of, best_path, best_path_of, Candidate, DecisionConfig, IgpMetric,
    MedMode, RouteRef,
};
pub use rib::{normalize, AdjRibOut, LocColumn, PathSet, RibInColumn, RibInEntry};
pub use store::{HeapBytes, PrefixId, PrefixIndex};
