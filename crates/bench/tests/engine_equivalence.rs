//! Engine-equivalence gate (DESIGN.md §10, §12).
//!
//! Every layer above `netsim` runs the sequential loop `Sim::run`; the
//! window loop (`Engine::Epoch`, `Engine::Sharded`) is kept for
//! `benchmark/`, which times it. This suite is what holds it to the
//! sequential oracle: it builds its sims itself and calls
//! `Sim::run_engine` directly. Each run under a parallel engine is
//! compared with the `seq` run of the same recipe on
//!
//! * the RIB fingerprint (`abrr_bench::fingerprint::fingerprint`: RIB
//!   sizes, a Loc-RIB hash over prefix, attributes, source and
//!   neighbour, and every update counter), plus per-node message
//!   counters and the resilience audit (blackholes, loops);
//! * the `RunOutcome` (events, end time, quiescence);
//! * the obs event trace, **byte for byte**;
//! * the metrics snapshot;
//! * with the pcap sink on, the capture file, byte for byte.
//!
//! Each parallel run is also repeated with observability off — the path
//! `benchmark/` times — and must reach the same end state and outcome.
//!
//! The recipes:
//!
//! * **V1** — a faulted ABRR run at MRAI 0: snapshot load, churn, a
//!   session flap, a router crash and a permanent ARR failure.
//! * **V2** — ABRR at MRAI 1 s with 60 s of churn (the `fig7_churn_abrr`
//!   golden's recipe): the only regime where sharded windows span
//!   timestamps.
//! * **V3** — TBRR snapshot load (the `fig6_tbrr` golden's recipe).
//! * **V4** — V1 in encode-decode-verify and in bytes-only wire mode,
//!   with the pcap sink on.
//! * **V5** — every corpus file that once declared the retired
//!   `engines_agree` check, plus the fuzzer smoke's fixed seeds, in
//!   ABRR mode with faults, built by `Loaded::build`; the seeds in
//!   struct and in encode-decode-verify wire mode.
//!
//! V1–V4 run at {1, 2, 8} workers: 1 is the fast path that
//! short-circuits to the sequential loop and must still stamp the same
//! per-event dispatch ids (they are part of each trace line); 2 is the
//! smallest real split; 8 oversubscribes the pool and, under `Sharded`,
//! has more shards than some recipes have APs, so routing hints wrap.
//! V5 runs at 2, as the retired oracle did.
//!
//! The obs layer is global state, so every test takes [`OBS`] before it
//! runs anything.

use abrr::prelude::*;
use abrr_bench::fingerprint::{fingerprint, golden_dir};
use abrr_bench::SETTLE_BUDGET_US;
use faults::{compile, FaultKind, FaultSchedule, ResilienceProbe};
use netsim::{Engine, NodeStats, RunConfig, WireMode};
use std::sync::{Arc, Mutex, MutexGuard};
use workload::specs::{self, SpecOptions};
use workload::{churn, regen, ChurnConfig, Tier1Config, Tier1Model};

/// Serializes the tests of this file: each one resets and drains the
/// process-wide obs trace, metrics and pcap state.
static OBS: Mutex<()> = Mutex::new(());

fn obs_guard() -> MutexGuard<'static, ()> {
    OBS.lock().unwrap_or_else(|e| e.into_inner())
}

/// A recipe's spec and sim after `engine` ran it, with the outcome of
/// the last run segment.
type Ran = (Arc<NetworkSpec>, Sim<BgpNode>, RunOutcome);

/// Everything one run is compared on.
struct Observed {
    fingerprint: String,
    stats: Vec<(RouterId, NodeStats)>,
    /// Resilience audit at the end: (blackholed pairs, loop
    /// observations).
    audit: (usize, u64),
    outcome: RunOutcome,
    trace: String,
    metrics: obs::MetricsSnapshot,
    /// The pcap capture; empty unless the sink was on.
    pcap: Vec<u8>,
}

/// Runs `recipe` under `engine` and collects what it left behind: with
/// `traced`, from a fresh trace and metrics registry and (with `pcap`)
/// capture sink; without it, the end state and outcome only.
fn observe(
    engine: Engine,
    traced: bool,
    pcap: bool,
    recipe: impl FnOnce(Engine) -> Ran,
) -> Observed {
    obs::trace::reset();
    obs::trace::set_spec(if traced { "trace" } else { "off" });
    obs::metrics::reset();
    obs::metrics::set_enabled(traced);
    obs::pcap::reset();
    if pcap {
        obs::pcap::enable();
    }
    let (spec, sim, outcome) = recipe(engine);
    obs::trace::flush_local();
    let trace = obs::trace::drain_jsonl();
    let metrics = obs::metrics::snapshot();
    let pcap = if pcap {
        obs::pcap::drain_file()
    } else {
        Vec::new()
    };
    obs::pcap::reset();
    obs::metrics::set_enabled(false);
    obs::trace::set_spec("off");
    obs::trace::reset();

    let mut probe = ResilienceProbe::new(sim.now());
    probe.sample(&sim, &spec, true);
    Observed {
        fingerprint: fingerprint("engine_equivalence", &sim, &spec),
        stats: spec
            .all_nodes()
            .into_iter()
            .map(|r| (r, sim.stats(r)))
            .collect(),
        audit: (probe.currently_blackholed, probe.loop_observations),
        outcome,
        trace,
        metrics,
        pcap,
    }
}

/// Panics with the first differing line of two traces instead of
/// dumping both multi-thousand-line strings.
fn assert_traces_equal(what: &str, reference: &str, got: &str) {
    if got == reference {
        return;
    }
    let diff = reference
        .lines()
        .zip(got.lines())
        .enumerate()
        .find(|(_, (a, b))| a != b);
    match diff {
        Some((i, (want, actual))) => panic!(
            "{what}: trace diverged at line {}:\n  seq: {want}\n  got: {actual}",
            i + 1
        ),
        None => panic!(
            "{what}: trace length diverged ({} vs {} lines)",
            reference.lines().count(),
            got.lines().count()
        ),
    }
}

/// Holds the end state and outcome of `got` (a run under `engine`) to
/// the `seq` run `reference`.
fn assert_same_state(what: &str, reference: &Observed, got: &Observed) {
    assert_eq!(
        got.fingerprint, reference.fingerprint,
        "{what}: RIB fingerprint diverged"
    );
    assert_eq!(
        got.stats, reference.stats,
        "{what}: node send/recv counters diverged"
    );
    assert_eq!(
        got.audit, reference.audit,
        "{what}: resilience audit diverged"
    );
    assert_eq!(
        got.outcome, reference.outcome,
        "{what}: run outcome diverged"
    );
}

/// Holds everything `got` (a run under `engine`) recorded to the `seq`
/// run `reference`.
fn assert_same(name: &str, engine: Engine, reference: &Observed, got: &Observed) {
    let what = format!("{name} under {engine:?}");
    assert_same_state(&what, reference, got);
    assert_traces_equal(&what, &reference.trace, &got.trace);
    assert_eq!(
        got.metrics, reference.metrics,
        "{what}: metrics snapshot diverged"
    );
    assert!(
        got.pcap == reference.pcap,
        "{what}: pcap capture diverged ({} vs {} bytes)",
        got.pcap.len(),
        reference.pcap.len()
    );
}

/// Runs `recipe` under `seq`, checks the reference is not vacuous, and
/// holds every parallel engine at `workers` to it. Returns the
/// reference.
fn check_engines(
    name: &str,
    workers: &[usize],
    pcap: bool,
    recipe: impl Fn(Engine) -> Ran,
) -> Observed {
    let reference = observe(Engine::Seq, true, pcap, &recipe);
    assert!(
        !reference.trace.is_empty(),
        "{name}: seq emitted no trace events"
    );
    assert!(
        !reference.metrics.is_empty(),
        "{name}: seq recorded no metrics"
    );
    assert!(
        !pcap || reference.pcap.len() > 24,
        "{name}: seq captured no packets"
    );
    for &n in workers {
        for engine in [Engine::Epoch(n), Engine::Sharded(n)] {
            let got = observe(engine, true, pcap, &recipe);
            assert_same(name, engine, &reference, &got);
            let quiet = observe(engine, false, false, &recipe);
            assert_same_state(
                &format!("{name} under {engine:?}, obs off"),
                &reference,
                &quiet,
            );
        }
    }
    reference
}

const WORKERS: [usize; 3] = [1, 2, 8];

fn model(n_prefixes: usize) -> Tier1Model {
    Tier1Model::generate(Tier1Config {
        n_prefixes,
        n_pops: 3,
        routers_per_pop: 3,
        ..Tier1Config::default()
    })
}

fn wired(mut spec: NetworkSpec, wire: WireMode) -> Arc<NetworkSpec> {
    spec.wire_mode = wire;
    Arc::new(spec)
}

/// V1: the faulted ABRR run at MRAI 0, in `wire` mode.
fn faulted_abrr(wire: WireMode, engine: Engine) -> Ran {
    let m = model(60);
    let opts = SpecOptions {
        mrai_us: 0,
        ..Default::default()
    };
    let spec = wired(specs::abrr_spec(&m, 4, 2, &opts), wire);
    let mut sim = build_sim(spec.clone());
    regen::replay(&mut sim, &churn::initial_snapshot(&m), 1_000);

    // Churn overlapping the fault window keeps the parallel windows
    // busy while global (session/node) events interleave.
    let churn_cfg = ChurnConfig {
        seed: 7,
        duration_us: 20_000_000,
        events_per_sec: 4.0,
        ..ChurnConfig::default()
    };
    regen::replay(&mut sim, &churn::generate(&m, &churn_cfg), 1);

    let (sa, sb) = (m.routers[0], spec.all_arrs()[1]);
    let mut sched = FaultSchedule::new(7);
    sched.push(
        2_000_000,
        FaultKind::SessionFlap {
            a: sa,
            b: sb,
            down_for: 3_000_000,
        },
    );
    sched.push(
        5_000_000,
        FaultKind::RouterCrash {
            node: m.routers[1],
            down_for: 4_000_000,
        },
    );
    sched.push(
        12_000_000,
        FaultKind::ArrFailure {
            arr: spec.all_arrs()[0],
        },
    );
    compile(&sched, &spec, &mut sim).expect("schedule compiles");
    let outcome = sim.run_engine(engine, RunLimits::default());
    (spec, sim, outcome)
}

/// Runs `sim` under `engine` until `deadline`.
fn run_until(sim: &mut Sim<BgpNode>, engine: Engine, deadline: u64) -> RunOutcome {
    sim.run_engine(
        engine,
        RunLimits {
            max_events: u64::MAX,
            max_time: deadline,
        },
    )
}

/// Snapshot load at MRAI 1 s, settled for the standard budget: the
/// golden recipes' first segment.
fn converge(spec: &Arc<NetworkSpec>, m: &Tier1Model, engine: Engine) -> Sim<BgpNode> {
    let mut sim = build_sim(spec.clone());
    regen::replay(&mut sim, &churn::initial_snapshot(m), 1_000);
    run_until(&mut sim, engine, SETTLE_BUDGET_US);
    sim
}

fn mrai_1s() -> SpecOptions {
    SpecOptions {
        mrai_us: 1_000_000,
        ..Default::default()
    }
}

/// V2: the `fig7_churn_abrr` golden's recipe.
fn mrai_paced_churn(engine: Engine) -> Ran {
    let m = model(120);
    let spec = Arc::new(specs::abrr_spec(&m, 4, 2, &mrai_1s()));
    let mut sim = converge(&spec, &m, engine);
    let churn_cfg = ChurnConfig {
        duration_us: 60_000_000,
        events_per_sec: 2.0,
        ..ChurnConfig::default()
    };
    let deadline = sim.now() + churn_cfg.duration_us + SETTLE_BUDGET_US;
    regen::replay(&mut sim, &churn::generate(&m, &churn_cfg), 1);
    let outcome = run_until(&mut sim, engine, deadline);
    (spec, sim, outcome)
}

/// V3: the `fig6_tbrr` golden's recipe.
fn tbrr_load(engine: Engine) -> Ran {
    let m = model(120);
    let spec = Arc::new(specs::tbrr_spec(&m, 2, false, &mrai_1s()));
    let mut sim = build_sim(spec.clone());
    regen::replay(&mut sim, &churn::initial_snapshot(&m), 1_000);
    let outcome = run_until(&mut sim, engine, SETTLE_BUDGET_US);
    (spec, sim, outcome)
}

/// Asserts `fp` is the golden file `name`'s body under this suite's
/// config line: the recipe really is the golden's.
fn assert_golden_recipe(name: &str, fp: &str) {
    let path = golden_dir().join(format!("{name}.txt"));
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {} ({e})", path.display()));
    let body = |s: &str| -> Vec<String> {
        s.lines()
            .filter(|l| l.starts_with("node "))
            .map(str::to_string)
            .collect()
    };
    assert_eq!(
        body(fp),
        body(&golden),
        "{name}: this suite's recipe no longer reproduces the golden file"
    );
}

#[test]
fn v1_faulted_abrr_run_matches_seq() {
    let _obs = obs_guard();
    let reference = check_engines("V1 faulted ABRR", &WORKERS, false, |e| {
        faulted_abrr(WireMode::Off, e)
    });
    assert!(reference.outcome.quiesced, "V1 must drain");
}

#[test]
fn sequential_rerun_is_reproducible() {
    // Sanity floor for the comparisons: a recipe is deterministic
    // run-to-run on one engine.
    let _obs = obs_guard();
    let a = observe(Engine::Seq, true, false, |e| faulted_abrr(WireMode::Off, e));
    let b = observe(Engine::Seq, true, false, |e| faulted_abrr(WireMode::Off, e));
    assert_same("V1 rerun", Engine::Seq, &a, &b);
}

#[test]
fn v2_mrai_paced_churn_matches_seq() {
    let _obs = obs_guard();
    let reference = check_engines("V2 MRAI-paced churn", &WORKERS, false, mrai_paced_churn);
    assert_golden_recipe("fig7_churn_abrr", &reference.fingerprint);
}

#[test]
fn v3_tbrr_load_matches_seq() {
    let _obs = obs_guard();
    let reference = check_engines("V3 TBRR load", &WORKERS, false, tbrr_load);
    assert_golden_recipe("fig6_tbrr", &reference.fingerprint);
}

#[test]
fn v4_wire_modes_and_pcap_match_seq() {
    let _obs = obs_guard();
    for wire in [WireMode::Verify, WireMode::Bytes] {
        let name = format!("V4 faulted ABRR in {} wire mode", wire.name());
        check_engines(&name, &WORKERS, true, |e| faulted_abrr(wire, e));
    }
}

/// The corpus files that declared `engines_agree` before it was retired.
const ENGINES_AGREE_CORPUS: [&str; 7] = [
    "constrained_connectivity",
    "dispute_wheel",
    "fast_reroute",
    "med_gadget",
    "small_reference",
    "tier1_reference",
    "topology_gadget",
];

/// `crates/scenario/tests/fuzz_smoke.rs`' base seed and case count.
const FUZZ_SEED: u64 = 0xAB88_2011;
const FUZZ_CASES: u64 = 25;

/// V5 on one loaded scenario: ABRR with its faults, in `wire` mode,
/// under the file's own run budget.
fn check_loaded(name: &str, loaded: &scenario::Loaded, wire: WireMode) {
    let limits = loaded.limits(RunConfig::default().limits);
    let name = format!("{name} in {} wire mode", wire.name());
    check_engines(&name, &[2], false, |engine| {
        let (spec, mut sim) = loaded
            .build(Mode::Abrr, true, wire)
            .unwrap_or_else(|e| panic!("{name}: does not build: {e}"));
        let outcome = sim.run_engine(engine, limits);
        (spec, sim, outcome)
    });
}

#[test]
fn v5_corpus_and_fuzz_seeds_match_seq() {
    let _obs = obs_guard();
    for name in ENGINES_AGREE_CORPUS {
        let loaded =
            scenario::load_corpus(name).unwrap_or_else(|e| panic!("{name}: does not load: {e:?}"));
        check_loaded(name, &loaded, WireMode::Off);
    }
    for seed in FUZZ_SEED..FUZZ_SEED + FUZZ_CASES {
        // Every generated case declares the `wire` check, whose runs
        // covered the window loop in verify mode too.
        let loaded = scenario::compile::compile(scenario::gen::generate(seed));
        for wire in [WireMode::Off, WireMode::Verify] {
            check_loaded(&format!("fuzz-{seed}"), &loaded, wire);
        }
    }
}
