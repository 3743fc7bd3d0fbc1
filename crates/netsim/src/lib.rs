//! A deterministic discrete-event network simulator.
//!
//! The paper's testbed ran ABRR/TBRR on real Quagga daemons and replayed
//! two weeks of BGP updates; the measured quantities were protocol
//! counters (RIB sizes, updates received / generated / transmitted),
//! not wall-clock timings (§4: the authors explicitly did not preserve
//! absolute timing, and verified the update counts are insensitive to
//! feed rate within 3%). This simulator reproduces exactly those
//! semantics: reliable ordered sessions with configurable latency,
//! per-peer MRAI pacing, and per-node counters — with the added benefit
//! that every run is bit-for-bit reproducible.
//!
//! Design follows the event-driven philosophy of smoltcp and the
//! actor/message-passing structure of Tokio services, but synchronously:
//! a single `(time, seq)`-ordered event heap, nodes as state machines
//! implementing [`Protocol`], and all I/O expressed as messages.
//!
//! Three execution engines share that state, selected per run by
//! [`Sim::run_engine`]: the sequential loop [`Sim::run`] (the oracle),
//! and two scheduling policies of one parallel window loop (see
//! [`window`]) — [`Engine::Epoch`], which drains each same-timestamp
//! epoch across a worker pool, and [`Engine::Sharded`], which batches
//! prefix-plane events into multi-timestamp lookahead windows routed to
//! per-shard workers, fencing only at session-semantic boundaries. All
//! three produce bit-identical outputs, and `seq` is the fastest of them
//! on every workload measured, so every layer above this crate runs
//! [`Sim::run`]. The window loop is kept for `benchmark/`, which times
//! it, and `crates/bench/tests/engine_equivalence.rs` gates it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mrai;
pub mod sim;
pub mod window;

pub use mrai::{Mrai, MraiVerdict};
pub use sim::{
    Ctx, Engine, ExternalClass, NodeStats, Protocol, RunConfig, RunLimits, RunOutcome, Sim, Time,
    WireMode,
};
