//! Engine-equivalence regression: a faulted ABRR scenario — snapshot
//! load, churn, session flap, router crash, permanent ARR failure —
//! must produce *bit-identical* results under the sequential event loop
//! and both policies of the parallel window loop at any worker count.
//! Compared per run: every router's full Loc-RIB (prefix, exit, attributes),
//! per-node send/receive counters, the run outcome (event count, end
//! time, quiescence), and the resilience audit verdict.
//!
//! This is the guardrail for the conservative-synchronization design in
//! netsim::window: if a code change breaks the window merge order (or
//! any node callback grows cross-node state), this test fails before
//! any experiment silently drifts.

use abrr::prelude::*;
use bgp_types::{FxHasher, RouterId};
use faults::{compile, FaultKind, FaultSchedule, ResilienceProbe};
use netsim::Engine;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use workload::specs::{self, SpecOptions};
use workload::{churn, regen, ChurnConfig, Tier1Config, Tier1Model};

fn model() -> Tier1Model {
    Tier1Model::generate(Tier1Config {
        n_prefixes: 60,
        n_pops: 3,
        routers_per_pop: 3,
        ..Tier1Config::default()
    })
}

/// One fingerprint per router: a hash over the router's complete
/// selection table in prefix order (prefix, exit, full attributes).
fn rib_fingerprints(sim: &Sim<BgpNode>, routers: &[RouterId]) -> Vec<(RouterId, u64)> {
    routers
        .iter()
        .map(|r| {
            let mut h = FxHasher::default();
            for (prefix, sel) in sim.node(*r).selections() {
                prefix.hash(&mut h);
                format!("{sel:?}").hash(&mut h);
            }
            (*r, h.finish())
        })
        .collect()
}

struct Observed {
    outcome: RunOutcome,
    stats: Vec<(RouterId, netsim::NodeStats)>,
    ribs: Vec<(RouterId, u64)>,
    blackholed: usize,
    loops: u64,
}

/// Builds the faulted scenario and runs it to quiescence under
/// `engine`.
fn run_scenario(engine: Engine) -> Observed {
    let m = model();
    let opts = SpecOptions {
        mrai_us: 0,
        ..Default::default()
    };
    let spec = Arc::new(specs::abrr_spec(&m, 4, 2, &opts));
    let mut sim = abrr::build_sim(spec.clone());
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

    let victim_arr = spec.all_arrs()[0];
    let crash_node = m.routers[1];
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
            node: crash_node,
            down_for: 4_000_000,
        },
    );
    sched.push(12_000_000, FaultKind::ArrFailure { arr: victim_arr });
    compile(&sched, &spec, &mut sim).expect("schedule compiles");

    let outcome = sim.run_engine(engine, RunLimits::default());

    let survivors: Vec<RouterId> = spec
        .all_nodes()
        .into_iter()
        .filter(|r| *r != victim_arr)
        .collect();
    let mut probe = ResilienceProbe::new(sim.now());
    probe.sample(&sim, &spec, true);
    Observed {
        outcome,
        stats: survivors.iter().map(|r| (*r, sim.stats(*r))).collect(),
        ribs: rib_fingerprints(&sim, &survivors),
        blackholed: probe.currently_blackholed,
        loops: probe.loop_observations,
    }
}

#[test]
fn parallel_engines_match_sequential_on_faulted_run() {
    let seq = run_scenario(Engine::Seq);
    assert!(seq.outcome.quiesced, "scenario must drain");
    for workers in [1, 2, 8] {
        for engine in [Engine::Epoch(workers), Engine::Sharded(workers)] {
            let par = run_scenario(engine);
            assert_eq!(
                seq.outcome, par.outcome,
                "run outcome diverged under {engine:?}"
            );
            assert_eq!(
                seq.stats, par.stats,
                "node send/recv counters diverged under {engine:?}"
            );
            assert_eq!(
                seq.ribs, par.ribs,
                "RIB fingerprints diverged under {engine:?}"
            );
            assert_eq!(
                (seq.blackholed, seq.loops),
                (par.blackholed, par.loops),
                "resilience audit diverged under {engine:?}"
            );
        }
    }
}

#[test]
fn sequential_rerun_is_reproducible() {
    // Sanity floor for the comparison above: the scenario itself is
    // deterministic run-to-run under one engine.
    let a = run_scenario(Engine::Seq);
    let b = run_scenario(Engine::Seq);
    assert_eq!(a.outcome, b.outcome);
    assert_eq!(a.ribs, b.ribs);
}
