//! Scaling harness: wall-clock, peak RSS, and event throughput for the
//! two heaviest workloads (fig7-style churn and resilience-style ARR
//! failover). Emits one JSON object per run —
//! printed to stdout and appended to `--out FILE` when given. The
//! `BENCH_2026-08-*.json` records were collected from these rows; the
//! regression benchmark proper lives in `benchmark/` (BENCHMARK.json),
//! and `scripts/ci.sh` uses this experiment as its scale smoke.
//!
//! Peak RSS is read from `VmHWM` in `/proc/self/status` (Linux-only;
//! reported as 0 elsewhere), so each invocation measures exactly one
//! workload — run it once per configuration.

use super::Def;
use crate::cli::{flag, APS, AP_COUNTS, MINUTES, OUT, PREFIXES, RATE, RATES, SEED};
use crate::peak_rss_kb;
use crate::pipeline::{f, t, u, Cell, Experiment, JsonRow};
use crate::SETTLE_BUDGET_US;
use faults::{compile, FaultKind, FaultSchedule};
use std::sync::Arc;
use std::time::Instant;
use workload::specs::{self, SpecOptions};
use workload::{churn, regen, ChurnConfig, Tier1Config, Tier1Model};

pub const DEF: Def = Def {
    name: "scale",
    about: "scaling harness — wall time, peak RSS and events/s of one churn or failover run",
    flags: &[
        flag("workload", "W", "workload to run: churn | failover").or("churn"),
        PREFIXES,
        MINUTES.or("5"),
        RATE.or("2.0"),
        SEED,
        APS.or("8"),
        flag("label", "L", "label recorded in the JSON row").or("optimized"),
        OUT,
    ],
    base: || Tier1Config {
        n_prefixes: 1_000,
        ..Tier1Config::default()
    },
    artefacts: &[],
    run,
};

fn run(exp: &Experiment) {
    let args = &exp.args;
    let workload = args.choice("workload", &["churn", "failover"]);
    let n_aps = args.get_in("aps", AP_COUNTS);
    let minutes: u64 = args.get("minutes");
    let rate: f64 = args.get_in("rate", RATES);
    let label: String = args.get("label");
    let cfg = args.tier1();
    let (seed, n_prefixes) = (cfg.seed, cfg.n_prefixes);
    let model = Tier1Model::generate(cfg);

    let start = Instant::now();
    // The churn workload is fig7's (MRAI on); the failover workload is
    // resilience's (MRAI off), with the ARR kill halfway through churn.
    let opts = SpecOptions {
        mrai_us: if workload == "churn" { 1_000_000 } else { 0 },
        ..Default::default()
    };
    let spec = Arc::new(specs::abrr_spec(&model, n_aps, 2, &opts));
    let mut run = exp.converge(spec.clone(), &model);
    let snapshot_events = run.outcome.events;
    let churn_cfg = ChurnConfig {
        duration_us: minutes * 60_000_000,
        events_per_sec: rate,
        ..ChurnConfig::default()
    };
    if workload == "churn" {
        run.churn(&model, &churn_cfg);
    } else {
        let churn_cfg = ChurnConfig { seed, ..churn_cfg };
        let t0 = run.now();
        regen::replay(&mut run.sim, &churn::generate(&model, &churn_cfg), 1);
        let mut sched = FaultSchedule::new(seed);
        sched.push(
            t0 + churn_cfg.duration_us / 2,
            FaultKind::ArrFailure {
                arr: spec.all_arrs()[0],
            },
        );
        compile(&sched, &spec, &mut run.sim).expect("schedule compiles");
        run.advance_to(t0 + churn_cfg.duration_us + SETTLE_BUDGET_US);
    }
    // Sampled while the sim (and so every RIB) is still alive: `entries`
    // is the live dedup set, not the empty post-teardown registry.
    let istats = bgp_types::intern::stats();
    let wall = start.elapsed();

    let events = snapshot_events + run.outcome.events;
    let eps = events as f64 / wall.as_secs_f64().max(1e-9);
    JsonRow::new()
        .cell("workload", &t(workload))
        .cell("label", &t(label))
        .cell("prefixes", &u(n_prefixes as u64))
        .cell("aps", &u(n_aps as u64))
        .cell("minutes", &u(minutes))
        .cell("seed", &u(seed))
        .cell("wall_ms", &f(wall.as_secs_f64() * 1e3, 1))
        .cell("events", &u(events))
        .cell("events_per_sec", &f(eps, 0))
        .cell("peak_rss_kb", &u(peak_rss_kb()))
        .cell("quiesced", &Cell::B(run.outcome.quiesced))
        .cell("sim_end_us", &u(run.outcome.end_time))
        .cell("intern_hits", &u(istats.hits))
        .cell("intern_misses", &u(istats.misses))
        .cell("intern_entries", &u(istats.entries as u64))
        .cell("intern_slots", &u(istats.slots as u64))
        .cell("intern_heap_bytes", &u(istats.heap_bytes as u64))
        .emit(args.get_opt::<String>("out").as_deref());
}
