//! Scaling harness: wall-clock, peak RSS, and event throughput for the
//! two heaviest workloads (fig7-style churn and resilience-style ARR
//! failover). Emits one JSON object per run —
//! printed to stdout and appended to `--out FILE` when given. The
//! `BENCH_2026-08-*.json` records were collected from these rows; the
//! regression benchmark proper lives in `benchmark/` (BENCHMARK.json),
//! and `scripts/ci.sh` uses this bin as its scale smoke.
//!
//! Peak RSS is read from `VmHWM` in `/proc/self/status` (Linux-only;
//! reported as 0 elsewhere), so each invocation measures exactly one
//! workload — run the bin once per configuration.
//!
//! Run: `cargo run --release -p abrr-bench --bin scale --
//!       [--workload churn|failover] [--prefixes N] [--minutes M] [--rate EPS]
//!       [--seed S] [--aps N] [--label L] [--out FILE]`

use abrr::prelude::*;
use abrr_bench::pipeline::JsonRow;
use abrr_bench::{
    converge_snapshot, flag, peak_rss_kb, run_churn, Args, Experiment, FlagSpec, AP_COUNTS,
    SETTLE_BUDGET_US,
};
use faults::{compile, FaultKind, FaultSchedule};
use std::sync::Arc;
use std::time::Instant;
use workload::specs::{self, SpecOptions};
use workload::{churn, regen, ChurnConfig, Tier1Config, Tier1Model};

const FLAGS: &[FlagSpec] = &[
    flag(
        "workload",
        "W",
        "workload to run: churn | failover (default churn)",
    ),
    flag(
        "prefixes",
        "N",
        "routed prefixes in the model (default 1000)",
    ),
    flag("minutes", "M", "churn-trace length in minutes (default 5)"),
    flag("rate", "EPS", "churn events per second (default 2.0)"),
    flag("seed", "S", "workload + fault RNG seed"),
    flag("aps", "N", "address partitions (default 8)"),
    flag(
        "label",
        "L",
        "label recorded in the JSON row (default optimized)",
    ),
    flag(
        "out",
        "FILE",
        "append the JSON row to FILE as well as stdout",
    ),
];

struct Measured {
    events: u64,
    quiesced: bool,
    sim_end_us: u64,
    /// Interner counters sampled while the sim (and so every RIB) is
    /// still alive — `entries` is the live dedup set, not the empty
    /// post-teardown registry.
    intern: bgp_types::intern::InternStats,
}

/// Converged snapshot load + scaled churn trace (the fig7 workload).
fn churn_workload(model: &Tier1Model, n_aps: usize, minutes: u64, rate: f64) -> Measured {
    let opts = SpecOptions {
        mrai_us: 1_000_000,
        ..Default::default()
    };
    let spec = Arc::new(specs::abrr_spec(model, n_aps, 2, &opts));
    let (mut sim, out1) = converge_snapshot(spec, model, 1_000);
    let cfg = ChurnConfig {
        duration_us: minutes * 60_000_000,
        events_per_sec: rate,
        ..ChurnConfig::default()
    };
    let out2 = run_churn(&mut sim, model, &cfg, 1);
    Measured {
        events: out1.events + out2.events,
        quiesced: out2.quiesced,
        sim_end_us: out2.end_time,
        intern: bgp_types::intern::stats(),
    }
}

/// Converged snapshot load + ARR kill under churn (the resilience
/// workload): the fault schedule is compiled exactly as the resilience
/// bin does it, then the network reconverges on the surviving ARRs.
fn failover_workload(
    model: &Tier1Model,
    n_aps: usize,
    minutes: u64,
    rate: f64,
    seed: u64,
) -> Measured {
    let opts = SpecOptions {
        mrai_us: 0,
        ..Default::default()
    };
    let spec = Arc::new(specs::abrr_spec(model, n_aps, 2, &opts));
    let (mut sim, out1) = converge_snapshot(spec.clone(), model, 1_000);
    let cfg = ChurnConfig {
        seed,
        duration_us: minutes * 60_000_000,
        events_per_sec: rate,
        ..ChurnConfig::default()
    };
    let t0 = sim.now();
    regen::replay(&mut sim, &churn::generate(model, &cfg), 1);
    let mut sched = FaultSchedule::new(seed);
    sched.push(
        t0 + cfg.duration_us / 2,
        FaultKind::ArrFailure {
            arr: spec.all_arrs()[0],
        },
    );
    compile(&sched, &spec, &mut sim).expect("schedule compiles");
    let out2 = sim.run(RunLimits {
        max_events: u64::MAX,
        max_time: t0 + cfg.duration_us + SETTLE_BUDGET_US,
    });
    Measured {
        events: out1.events + out2.events,
        quiesced: out2.quiesced,
        sim_end_us: out2.end_time,
        intern: bgp_types::intern::stats(),
    }
}

fn main() {
    let args = Args::parse("scale", FLAGS);
    let _obs = Experiment::from_args(&args);
    let workload = args.choice("workload", "churn", &["churn", "failover"]);
    let seed: u64 = args.get("seed", Tier1Config::default().seed);
    let n_aps = args.get_in("aps", 8, AP_COUNTS);
    let minutes: u64 = args.get("minutes", 5);
    let rate: f64 = args.get("rate", 2.0);
    let label = args.map_get("label").unwrap_or("optimized").to_string();
    let cfg = Tier1Config {
        seed,
        n_prefixes: args.get("prefixes", 1_000),
        ..Tier1Config::default()
    };
    let n_prefixes = cfg.n_prefixes;
    let model = Tier1Model::generate(cfg);

    let t = Instant::now();
    let m = match workload {
        "failover" => failover_workload(&model, n_aps, minutes, rate, seed),
        // "churn": `choice` admits nothing else.
        _ => churn_workload(&model, n_aps, minutes, rate),
    };
    let wall = t.elapsed();

    let wall_ms = wall.as_secs_f64() * 1e3;
    let eps = m.events as f64 / wall.as_secs_f64().max(1e-9);
    let istats = m.intern;
    JsonRow::new()
        .str("workload", workload)
        .str("label", &label)
        .usize("prefixes", n_prefixes)
        .usize("aps", n_aps)
        .u64("minutes", minutes)
        .u64("seed", seed)
        .f64("wall_ms", wall_ms, 1)
        .u64("events", m.events)
        .f64("events_per_sec", eps, 0)
        .u64("peak_rss_kb", peak_rss_kb())
        .bool("quiesced", m.quiesced)
        .u64("sim_end_us", m.sim_end_us)
        .u64("intern_hits", istats.hits)
        .u64("intern_misses", istats.misses)
        .usize("intern_entries", istats.entries)
        .usize("intern_slots", istats.slots)
        .usize("intern_heap_bytes", istats.heap_bytes)
        .emit(args.map_get("out"));
}
