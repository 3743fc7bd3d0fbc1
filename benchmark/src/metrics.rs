//! The metric names and units, in the order they are printed. The same
//! names, units and directions are declared in `BENCHMARK.json`;
//! `tests/smoke.rs` holds the two lists equal.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`, measured with tracing off.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("records_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("updates_per_record", "ratio"),
];

/// Per-layer metrics: `(name, unit)`, measured by the traced run.
pub const PER_LAYER: [(&str, &str); 54] = [
    // workload
    ("workload.model_gen_s", "s"),
    ("workload.snapshot_gen_s", "s"),
    ("workload.churn_gen_s", "s"),
    ("workload.replay_s", "s"),
    // igp and core::spec
    ("core.spec_build_s", "s"),
    ("core.build_sim_s", "s"),
    ("igp.spf_ns_per_source", "ns"),
    // netsim
    ("netsim.run_s", "s"),
    ("netsim.events", "count"),
    ("netsim.ns_per_event", "ns"),
    ("netsim.events_per_record", "ratio"),
    ("netsim.max_queue", "count"),
    ("netsim.slice_max_over_median", "ratio"),
    ("netsim.dispatch_floor_ns_per_event", "ns"),
    ("netsim.mrai.offer_flush_ns", "ns"),
    ("netsim.sharded2.speedup", "ratio"),
    ("netsim.sharded2.windows", "count"),
    ("netsim.sharded2.fences", "count"),
    ("netsim.sharded2.utilisation", "ratio"),
    ("netsim.epoch2.speedup", "ratio"),
    // core::roles
    ("core.updates_rx_per_record", "ratio"),
    ("core.updates_generated_per_record", "ratio"),
    ("core.bytes_tx_per_record", "B"),
    ("core.loop_prevented", "count"),
    ("core.mrai_batch_mean", "ratio"),
    ("core.mrai_deferred_share", "ratio"),
    ("core.decision_candidates_mean", "ratio"),
    // bgp-rib
    ("bgp-rib.rib_in_entries_max", "count"),
    ("bgp-rib.rib_out_entries_max", "count"),
    ("bgp-rib.loc_rib_entries", "count"),
    ("bgp-rib.bytes_per_path", "B"),
    ("bgp-rib.decision.best_as_level_ns", "ns"),
    ("bgp-rib.decision.batch_survivors_ns", "ns"),
    ("bgp-rib.decision.best_path_ns", "ns"),
    ("bgp-rib.rib.adj_in_set_ns", "ns"),
    ("bgp-rib.rib.adj_in_all_paths_ns", "ns"),
    ("bgp-rib.rib.export_walk_ns_per_prefix", "ns"),
    ("bgp-rib.rib.loc_lookup_ns", "ns"),
    // bgp-types
    ("bgp-types.intern_hit_ratio", "ratio"),
    ("bgp-types.intern_entries", "count"),
    ("bgp-types.intern.hit_ns", "ns"),
    ("bgp-types.intern.miss_ns", "ns"),
    ("bgp-types.trie.insert_ns", "ns"),
    ("bgp-types.trie.longest_match_ns", "ns"),
    // bgp-wire through core::wire
    ("core.wire.frames_encoded", "count"),
    ("core.wire.bytes_per_frame", "B"),
    ("core.wire.encode_ns_per_frame", "ns"),
    ("core.wire.decode_ns_per_frame", "ns"),
    // faults and core::audit
    ("faults.compile_s", "s"),
    ("core.audit_s", "s"),
    // allocator and obs
    ("alloc.peak_live_mb", "MB"),
    ("alloc.count_per_record", "ratio"),
    ("alloc.mb_per_record", "MB"),
    ("obs.overhead_ratio", "ratio"),
];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
