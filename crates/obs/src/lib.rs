//! Deterministic observability for the ABRR reproduction.
//!
//! Three facilities, all zero-overhead when disabled (a relaxed atomic
//! load per call site, nothing else):
//!
//! * [`trace`] — structured event traces. Call sites use the
//!   [`event!`] macro; events carry a deterministic sort key
//!   derived from the simulator's `(time, heap-entry id)` dispatch
//!   order, so the sequential engine and the parallel engine emit
//!   **byte-identical** JSONL (see `trace` module docs for the
//!   determinism argument). Enabled via the `ABRR_TRACE` env spec
//!   (e.g. `ABRR_TRACE=debug` or `ABRR_TRACE=core=trace,netsim=info`)
//!   or programmatically via [`trace::set_spec`].
//! * [`metrics`] — a typed registry of counters, gauges and fixed-bucket
//!   histograms, keyed by a static metric name plus an optional node
//!   label. Only *deterministic* quantities go here
//!   (protocol counts, sim-tick latencies, batch sizes, RIB occupancy):
//!   every update is commutative or single-writer-per-label, so the
//!   final [`metrics::snapshot`] is identical under both engines.
//! * [`profile`] — wall-clock engine profiling (per-run wall time,
//!   epoch counts, queue depths, worker utilization). Deliberately kept
//!   *out* of the metrics registry: wall time is nondeterministic and
//!   must never leak into engine-equivalence comparisons.
//!
//! [`UpdateCounters`] also lives here: it is the paper's §4.2 update
//! accounting, migrated from `crates/core` (which re-exports it
//! unchanged, so downstream results stay byte-identical).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counters;
pub mod metrics;
pub mod pcap;
pub mod profile;
pub mod trace;

pub use counters::UpdateCounters;
pub use metrics::{Counter, Gauge, Histogram, MetricValue, MetricsSnapshot};
pub use trace::FieldValue;

/// Trace severity, ordered: a spec level admits itself and everything
/// more severe.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Tracing disabled.
    Off = 0,
    /// Unrecoverable protocol violations.
    Error = 1,
    /// Suspicious but tolerated conditions.
    Warn = 2,
    /// Lifecycle landmarks (faults firing, sessions moving).
    Info = 3,
    /// Per-update protocol activity.
    Debug = 4,
    /// Everything, including per-candidate decision detail.
    Trace = 5,
}

impl Level {
    /// Lower-case name used in the `ABRR_TRACE` spec and JSONL output.
    pub fn name(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    fn parse(s: &str) -> Option<Level> {
        Some(match s {
            "off" => Level::Off,
            "error" => Level::Error,
            "warn" => Level::Warn,
            "info" => Level::Info,
            "debug" => Level::Debug,
            "trace" => Level::Trace,
            _ => return None,
        })
    }
}

/// The emitting subsystem; the `ABRR_TRACE` spec filters per subsystem.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Subsystem {
    /// The discrete-event simulator and its engines.
    Netsim = 0,
    /// The BGP protocol engines (roles, chassis, decision).
    Core = 1,
    /// Fault-schedule compilation and injection.
    Faults = 2,
    /// The experiment pipeline and binaries.
    Bench = 3,
    /// The RFC 4271 wire codec.
    Wire = 4,
    /// The observability layer itself.
    Obs = 5,
}

/// Number of [`Subsystem`] variants (sizes the level filter array).
pub const NUM_SUBSYSTEMS: usize = 6;

impl Subsystem {
    /// Lower-case name used in the `ABRR_TRACE` spec and JSONL output.
    pub fn name(self) -> &'static str {
        match self {
            Subsystem::Netsim => "netsim",
            Subsystem::Core => "core",
            Subsystem::Faults => "faults",
            Subsystem::Bench => "bench",
            Subsystem::Wire => "wire",
            Subsystem::Obs => "obs",
        }
    }

    fn parse(s: &str) -> Option<Subsystem> {
        Some(match s {
            "netsim" => Subsystem::Netsim,
            "core" => Subsystem::Core,
            "faults" => Subsystem::Faults,
            "bench" => Subsystem::Bench,
            "wire" => Subsystem::Wire,
            "obs" => Subsystem::Obs,
            _ => return None,
        })
    }
}

/// Emits one structured trace event when the `(subsystem, level)` pair
/// is enabled. Field values are only evaluated when enabled.
///
/// ```
/// use obs::event;
/// obs::trace::set_spec("core=debug");
/// event!(Core, Debug, "core.rx", node = 3, "from" => 5u32, "n_paths" => 2usize);
/// obs::trace::reset();
/// ```
#[macro_export]
macro_rules! event {
    ($sub:ident, $lvl:ident, $name:expr $(, node = $node:expr)? $(, $k:literal => $v:expr)* $(,)?) => {{
        if $crate::trace::enabled($crate::Subsystem::$sub, $crate::Level::$lvl) {
            #[allow(unused_mut, unused_assignments)]
            let mut node: Option<u32> = None;
            $(node = Some($node);)?
            $crate::trace::record(
                $crate::Subsystem::$sub,
                $crate::Level::$lvl,
                $name,
                node,
                vec![$(($k, $crate::FieldValue::from($v))),*],
            );
        }
    }};
}
