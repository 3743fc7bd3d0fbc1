//! The repository's benchmark: four fixed-work workloads over the
//! fig6 / fig7 / resilience pipelines, end-to-end metrics measured with
//! tracing off, and a traced run that attributes cost to the layers
//! (the workspace's crates). `README.md` explains what is measured and
//! why; `BENCHMARK.json` at the repository root declares the metric
//! names, directions and regression bounds.
//!
//! Layers are measured only from here, by timing calls into their
//! public functions; nothing under `crates/` knows the benchmark exists.

#![warn(missing_docs)]

pub mod alloc;
pub mod calib;
pub mod kernels;
pub mod layers;
pub mod metrics;
pub mod pass;
pub mod run;
pub mod spans;
pub mod workloads;
