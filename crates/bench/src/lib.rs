//! The paper's experiments and their shared harness: a strict CLI, the
//! typed run pipeline, and RR fleet statistics. Each entry of
//! [`experiments::ALL`] regenerates one table or figure of the paper (or
//! is a tool around them) and runs as `repro <experiment>`; see
//! DESIGN.md §4 for the index and EXPERIMENTS.md for recorded results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod experiments;
pub mod fingerprint;
pub mod pipeline;

use abrr::{BgpNode, UpdateCounters};
use bgp_types::RouterId;
use netsim::{Sim, Time};
use std::collections::BTreeMap;

/// Simulated time allowed for a network to settle after the last
/// injected event. Single-path TBRR can oscillate *persistently* (the
/// §2.3 pathologies are real in this workload too); the experiments
/// therefore sample state at a time budget, exactly as the paper's
/// testbed measured a running system, and report non-quiescence.
pub const SETTLE_BUDGET_US: Time = 300_000_000;

/// Aggregate over a fleet of RRs: min/avg/max of a per-node metric.
#[derive(Clone, Copy, Debug, Default)]
pub struct MinAvgMax {
    /// Smallest observed value.
    pub min: f64,
    /// Mean.
    pub avg: f64,
    /// Largest observed value.
    pub max: f64,
}

impl MinAvgMax {
    /// Computes the aggregate of `values` (zeroes for an empty slice).
    pub fn of(values: &[f64]) -> MinAvgMax {
        if values.is_empty() {
            return MinAvgMax::default();
        }
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let avg = values.iter().sum::<f64>() / values.len() as f64;
        MinAvgMax { min, avg, max }
    }
}

/// Collected statistics over a set of RRs after a run.
#[derive(Clone, Debug, Default)]
pub struct FleetStats {
    /// RIB-In sizes.
    pub rib_in: MinAvgMax,
    /// RIB-Out sizes.
    pub rib_out: MinAvgMax,
    /// Summed update counters over the fleet.
    pub totals: UpdateCounters,
    /// Per-node counters (for deltas).
    pub per_node: BTreeMap<RouterId, UpdateCounters>,
}

/// Gathers RIB sizes and counters for the given node set.
pub fn fleet_stats(sim: &Sim<BgpNode>, nodes: &[RouterId]) -> FleetStats {
    let rib_in: Vec<f64> = nodes
        .iter()
        .map(|r| sim.node(*r).rib_in_size() as f64)
        .collect();
    let rib_out: Vec<f64> = nodes
        .iter()
        .map(|r| sim.node(*r).rib_out_size() as f64)
        .collect();
    let mut totals = UpdateCounters::default();
    let mut per_node = BTreeMap::new();
    for r in nodes {
        let c = *sim.node(*r).counters();
        totals.merge(&c);
        per_node.insert(*r, c);
    }
    FleetStats {
        rib_in: MinAvgMax::of(&rib_in),
        rib_out: MinAvgMax::of(&rib_out),
        totals,
        per_node,
    }
}

/// Difference of update counters between two snapshots (b − a),
/// node-wise summed.
pub fn counter_delta(a: &FleetStats, b: &FleetStats) -> UpdateCounters {
    let mut out = UpdateCounters::default();
    for (r, cb) in &b.per_node {
        let ca = a.per_node.get(r).copied().unwrap_or_default();
        out.received += cb.received - ca.received;
        out.generated += cb.generated - ca.generated;
        out.transmitted += cb.transmitted - ca.transmitted;
        out.bytes_transmitted += cb.bytes_transmitted - ca.bytes_transmitted;
        out.loop_prevented += cb.loop_prevented - ca.loop_prevented;
        out.ebgp_events += cb.ebgp_events - ca.ebgp_events;
        out.ebgp_exported += cb.ebgp_exported - ca.ebgp_exported;
    }
    out
}

/// Peak resident set size of this process in kB (`VmHWM` from
/// `/proc/self/status`; 0 on platforms without procfs). Shared by the
/// `scale` experiment and the figures' `--out` JSON rows.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_avg_max() {
        let m = MinAvgMax::of(&[1.0, 2.0, 6.0]);
        assert_eq!(m.min, 1.0);
        assert_eq!(m.max, 6.0);
        assert!((m.avg - 3.0).abs() < 1e-9);
        let z = MinAvgMax::of(&[]);
        assert_eq!(z.avg, 0.0);
    }
}
