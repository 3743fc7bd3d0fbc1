//! Declarative scenario DSL for the ABRR reproduction.
//!
//! Every experiment in `abrr::scenarios` used to be a hand-written Rust
//! function; this crate makes scenarios *data*. A scenario file (JSON,
//! parsed by the vendored `serde` stub) describes a topology, role
//! assignments, AP layout, eBGP workload, a fault schedule (the
//! `faults` crate's types), and the invariants the run is expected to
//! satisfy. The loader compiles a file into the very same
//! [`abrr::scenarios::Scenario`] / [`abrr::NetworkSpec`] structures the
//! Rust gadgets produce, so everything downstream — the simulator, the
//! auditors, the golden fingerprints — is shared.
//!
//! Modules:
//!
//! * [`schema`] — the parsed scenario model ([`schema::ScenarioFile`]).
//! * [`parse`] — JSON → model with path-tracked errors
//!   (`workload.feeds[2].router: expected integer`).
//! * [`validate`] — semantic validation: dangling link endpoints,
//!   overlapping APs, §2.4 accept-set violations, faults referencing
//!   unknown nodes — targeted errors, never panics.
//! * [`compile`] — model → runnable [`compile::Loaded`] scenario.
//! * [`check`] — the oracle stack: quiescence, forwarding-loop and
//!   blackhole audits, full-mesh exit equivalence, struct-vs-wire
//!   obs-trace equivalence, pinned exits.
//! * [`gen`] — seeded random scenario generator.
//! * [`mod@fuzz`] — generator + oracles + [`shrink`]: run many random
//!   scenarios, shrink any failure to a minimal gadget file on disk.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod compile;
pub mod fuzz;
pub mod gen;
pub mod parse;
pub mod schema;
pub mod shrink;
pub mod validate;

pub use check::{run_checks, CheckFailure, ScenarioReport};
pub use compile::{load_path, load_str, Loaded};
pub use fuzz::{fuzz, FuzzFailure, FuzzOutcome};
pub use parse::ScenarioError;
pub use schema::ScenarioFile;
