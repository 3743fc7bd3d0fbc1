//! Deterministic fault injection and resilience auditing for the ABRR
//! reproduction.
//!
//! The paper argues (§2.2) that ABRR tolerates ARR failure through
//! redundancy: every AP is served by two or more ARRs, clients hold the
//! reflected routes of *all* of them, and losing one ARR leaves
//! forwarding intact while sessions to the survivor carry on. This
//! crate makes that claim testable:
//!
//! * [`schedule`] — [`FaultSchedule`]: replayable descriptions of
//!   failures (session flaps, link loss, router crash-restart with RIB
//!   loss, permanent ARR failure, runtime AP reassignment).
//! * [`compile`](compile()) — turns a schedule into pre-scheduled
//!   `netsim` events, so fault runs are exactly as deterministic as
//!   fault-free ones.
//! * [`resilience`] — auditors measuring what a fault costs the data
//!   plane: per-router×prefix blackhole windows against a live
//!   full-mesh-style reachability oracle, and transient forwarding-loop
//!   observations. Post-fault selections are compared against a
//!   reference run with `abrr::audit::compare_exits`.
//!
//! The capstone experiment lives in `abrr-bench` (`repro resilience`):
//! kill one ARR (redundancy 2) vs one TRR vs one mesh router under
//! churn and compare reconvergence time, update-storm size, and total
//! blackhole duration per scheme.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compile;
pub mod resilience;
pub mod schedule;

pub use compile::{compile, CompileError};
pub use resilience::ResilienceProbe;
pub use schedule::{Fault, FaultKind, FaultSchedule};
