//! The per-layer half of the traced run: turns spans, `obs` counters,
//! allocator counts, the parallel-engine passes and the kernels into
//! the per-layer metrics.

use crate::kernels;
use crate::metrics::{ratio, Values};
use crate::pass::{run_pass, PassResult};
use crate::run::{median, Config, Measured, Summary, MIN_PASSES};
use crate::spans::Recorder;
use netsim::Engine;
use obs::{MetricValue, MetricsSnapshot};
use std::process::Command;

/// Runs the untraced sibling binary on the same inputs for
/// [`MIN_PASSES`] passes and returns its slice composite: the
/// denominator of `obs.overhead_ratio`. Returns 0 if it cannot be run.
pub fn untraced_composite_s(cfg: &Config) -> f64 {
    let sibling = match std::env::current_exe() {
        Ok(exe) => exe.with_file_name("bench"),
        Err(_) => return 0.0,
    };
    let output = Command::new(sibling)
        .args(["--workload", cfg.workload.name, "--trace", "0"])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--passes", &cfg.passes.unwrap_or(MIN_PASSES).to_string()])
        .args(["--scale-div", &cfg.scale_div.to_string()])
        .arg("--expected-dir")
        .arg(&cfg.expected_dir)
        .output();
    let Ok(output) = output else { return 0.0 };
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .find_map(|l| l.strip_prefix("composite_s "))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

/// Sum over node labels of a counter or gauge.
fn total(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.iter()
        .filter(|((n, _), _)| n == name)
        .map(|(_, v)| match v {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => *v,
            MetricValue::Histogram { .. } => 0,
        })
        .sum()
}

/// `(sum, count)` over node labels of a histogram.
fn histogram(snap: &MetricsSnapshot, name: &str) -> (u64, u64) {
    snap.iter()
        .filter(|((n, _), _)| n == name)
        .fold((0, 0), |(s, c), (_, v)| match v {
            MetricValue::Histogram { sum, count, .. } => (s + sum, c + count),
            _ => (s, c),
        })
}

/// One pass with the whole timed region handed to `engine` at once;
/// returns the pass if it reproduced `reference` exactly.
fn engine_pass(
    cfg: &Config,
    engine: Engine,
    reference: &PassResult,
    rec: &mut Recorder,
) -> Option<PassResult> {
    let (pass, _world) = run_pass(cfg.workload, cfg.seed, cfg.scale_div, engine, u64::MAX, rec);
    // The oracle text carries the fingerprint, events, end time and counters.
    let same = pass.failures.is_empty() && pass.oracle == reference.oracle;
    if !same {
        eprintln!(
            "engine {}({}) did not reproduce the sequential result",
            engine.name(),
            engine.workers()
        );
    }
    same.then_some(pass)
}

/// Fills `values` with every per-layer metric. Returns how many
/// parallel-engine passes were attempted and how many of them failed
/// to reproduce the sequential result: they are operations too.
pub fn collect(
    cfg: &Config,
    m: &Measured,
    s: &Summary,
    untraced_composite_s: f64,
    rec: &mut Recorder,
    values: &mut Values,
) -> (usize, usize) {
    let first = &m.passes[0];
    let last = m.passes.last().expect("at least one pass");
    let records = first.records as f64;
    let events = first.events() as f64;

    // Host time of a layer call: fastest pass, like every other time.
    let span_s = |rec: &Recorder, name: &str| {
        m.passes
            .iter()
            .filter_map(|p| p.span)
            .map(|pass| rec.seconds_under(pass, name))
            .fold(f64::INFINITY, f64::min)
    };
    for (metric, span) in [
        ("workload.model_gen_s", "workload.model_gen"),
        ("workload.snapshot_gen_s", "workload.snapshot_gen"),
        ("workload.churn_gen_s", "workload.churn_gen"),
        ("workload.replay_s", "workload.replay"),
        ("core.spec_build_s", "core.spec_build"),
        ("core.build_sim_s", "core.build_sim"),
        ("faults.compile_s", "faults.compile"),
        ("core.audit_s", "core.audit"),
    ] {
        values.insert(metric, span_s(rec, span));
    }

    // netsim: the timed region without its scheduling slice.
    let run_minima = s.minima.get(1..).unwrap_or(&[]);
    let run_s = run_minima.iter().sum::<u64>() as f64 / 1e9;
    values.insert("netsim.run_s", run_s);
    values.insert("netsim.events", events);
    values.insert("netsim.ns_per_event", ratio(run_s * 1e9, events));
    values.insert("netsim.events_per_record", ratio(events, records));
    values.insert("netsim.max_queue", last.layers.max_queue as f64);
    let mut sorted = run_minima.to_vec();
    sorted.sort_unstable();
    values.insert(
        "netsim.slice_max_over_median",
        ratio(
            sorted.last().copied().unwrap_or(0) as f64,
            sorted.get(sorted.len() / 2).copied().unwrap_or(0) as f64,
        ),
    );

    // core::roles, from the obs registry over the timed region.
    let snap = &last.layers.metrics;
    let c = &first.counters;
    values.insert(
        "core.updates_rx_per_record",
        ratio(c.received as f64, records),
    );
    values.insert(
        "core.updates_generated_per_record",
        ratio(c.generated as f64, records),
    );
    values.insert(
        "core.bytes_tx_per_record",
        ratio(total(snap, "core.wire.bytes_decoded") as f64, records),
    );
    values.insert("core.loop_prevented", c.loop_prevented as f64);
    let (flushed, flushes) = histogram(snap, "core.mrai.batch");
    let (_, deferred) = histogram(snap, "core.mrai.defer_us");
    let sent_at_once = c.transmitted.saturating_sub(flushed);
    values.insert(
        "core.mrai_batch_mean",
        ratio(flushed as f64, flushes as f64),
    );
    values.insert(
        "core.mrai_deferred_share",
        ratio(deferred as f64, (deferred + sent_at_once) as f64),
    );
    let (candidates, decisions) = histogram(snap, "core.decision.candidates");
    values.insert(
        "core.decision_candidates_mean",
        ratio(candidates as f64, decisions as f64),
    );
    values.insert(
        "core.wire.frames_encoded",
        total(snap, "core.wire.encoded") as f64,
    );

    // bgp-rib and bgp-types occupancy, from the finished sim.
    let world = &m.world;
    let nodes = || world.sim.nodes().map(|(_, n)| n);
    let stored_paths: usize = nodes().map(|n| n.rib_in_size() + n.rib_out_size()).sum();
    values.insert(
        "bgp-rib.rib_in_entries_max",
        nodes().map(|n| n.rib_in_size()).max().unwrap_or(0) as f64,
    );
    values.insert(
        "bgp-rib.rib_out_entries_max",
        nodes().map(|n| n.rib_out_size()).max().unwrap_or(0) as f64,
    );
    values.insert(
        "bgp-rib.loc_rib_entries",
        nodes().map(|n| n.loc_rib_len()).sum::<usize>() as f64,
    );
    values.insert(
        "bgp-rib.bytes_per_path",
        ratio(last.layers.sim_live_bytes as f64, stored_paths as f64),
    );
    let l = &last.layers;
    values.insert(
        "bgp-types.intern_hit_ratio",
        ratio(
            l.intern_hits as f64,
            (l.intern_hits + l.intern_misses) as f64,
        ),
    );
    values.insert("bgp-types.intern_entries", l.intern_entries as f64);

    // allocator and obs
    const MB: f64 = 1024.0 * 1024.0;
    values.insert("alloc.peak_live_mb", l.alloc_peak as f64 / MB);
    values.insert(
        "alloc.count_per_record",
        ratio(l.alloc_count as f64, records),
    );
    values.insert(
        "alloc.mb_per_record",
        ratio(l.alloc_bytes as f64 / MB, records),
    );
    values.insert(
        "obs.overhead_ratio",
        ratio(s.composite_s, untraced_composite_s),
    );

    // The parallel engines on the same inputs, against the median
    // sequential pass of this (traced) run; zeros where not compared.
    let seq_s = median(s.good.iter().map(|p| p.timed_s()).collect());
    let (mut sharded, mut epoch) = (None, None);
    let mut engine_ops = (0, 0);
    if cfg.workload.compare_engines {
        let engines = rec.enter("engines");
        sharded = engine_pass(cfg, Engine::Sharded(2), first, rec);
        epoch = engine_pass(cfg, Engine::Epoch(2), first, rec);
        rec.exit(engines, &[]);
        engine_ops = (2, sharded.is_none() as usize + epoch.is_none() as usize);
    }
    let speedup = |p: &Option<PassResult>| p.as_ref().map_or(0.0, |p| ratio(seq_s, p.timed_s()));
    values.insert("netsim.sharded2.speedup", speedup(&sharded));
    values.insert("netsim.epoch2.speedup", speedup(&epoch));
    let sharded = sharded.map(|p| p.layers).unwrap_or_default();
    values.insert("netsim.sharded2.windows", sharded.windows as f64);
    values.insert("netsim.sharded2.fences", sharded.fences as f64);
    values.insert("netsim.sharded2.utilisation", sharded.utilisation);

    let open = rec.enter("kernels");
    for (name, value) in kernels::run(world, rec) {
        values.insert(name, value);
    }
    rec.exit(open, &[]);
    engine_ops
}

/// Writes the trace to `<out-dir>/<workload>.trace.json`.
pub fn write_trace(cfg: &Config, rec: &Recorder) -> std::io::Result<()> {
    std::fs::create_dir_all(&cfg.out_dir)?;
    let path = cfg
        .out_dir
        .join(format!("{}.trace.json", cfg.workload.name));
    std::fs::write(path, rec.to_json())
}
