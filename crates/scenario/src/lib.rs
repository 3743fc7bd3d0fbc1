//! Declarative scenario DSL for the ABRR reproduction.
//!
//! Scenarios are *data*. A scenario file (JSON, parsed by the vendored
//! `serde` stub) describes a topology, role assignments, AP layout,
//! eBGP workload, a fault schedule (the `faults` crate's types), and
//! the invariants the run is expected to satisfy. The corpus under
//! `examples/scenarios/` is the only definition of the §2.3 MED and
//! topology oscillation gadgets and of the small reference network;
//! the loader compiles a file into an [`abrr::NetworkSpec`] plus its
//! scheduled workload, so everything downstream — the simulator, the
//! auditors, the golden fingerprints — runs the one definition.
//!
//! Modules:
//!
//! * [`schema`] — the parsed scenario model ([`schema::ScenarioFile`]),
//!   which is also the one declaration of the file format: each
//!   record lists its keys, their types and their defaults once.
//! * [`parse`] — the codec those declarations drive: JSON ↔ model,
//!   values typed as they are read, errors anchored to a JSON path
//!   (`$.workload.feeds[2].router: expected a non-negative integer`).
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
pub use compile::{corpus_dir, load_corpus, load_path, load_str, Loaded};
pub use fuzz::{fuzz, FuzzFailure, FuzzOutcome};
pub use parse::ScenarioError;
pub use schema::ScenarioFile;
