//! End-to-end fault-injection tests: schedules compiled onto live
//! engine simulators, checked against never-faulted reference runs.

use abrr::prelude::*;
use bgp_types::ApId;
use faults::{compile, CompileError, FaultKind, FaultSchedule, ResilienceProbe};
use std::sync::Arc;
use workload::specs::{self, SpecOptions};
use workload::{churn, regen, Tier1Config, Tier1Model};

fn model() -> Tier1Model {
    Tier1Model::generate(Tier1Config {
        n_prefixes: 60,
        n_pops: 3,
        routers_per_pop: 3,
        ..Tier1Config::default()
    })
}

fn opts() -> SpecOptions {
    SpecOptions {
        mrai_us: 0,
        ..Default::default()
    }
}

/// Builds an ABRR sim and converges the initial snapshot.
fn converged_abrr(m: &Tier1Model) -> (Arc<NetworkSpec>, Sim<BgpNode>) {
    let spec = Arc::new(specs::abrr_spec(m, 4, 2, &opts()));
    let mut sim = abrr::build_sim(spec.clone());
    regen::replay(&mut sim, &churn::initial_snapshot(m), 1_000);
    sim.run_to_quiescence();
    (spec, sim)
}

#[test]
fn arr_failure_fails_over_without_blackholes() {
    let m = model();
    let (spec, mut sim) = converged_abrr(&m);
    let victim = spec.all_arrs()[0];
    let before: Vec<(RouterId, Ipv4Prefix)> = m
        .routers
        .iter()
        .flat_map(|r| {
            sim.node(*r)
                .selections()
                .map(|(p, _)| (*r, *p))
                .collect::<Vec<_>>()
        })
        .collect();
    assert!(!before.is_empty());

    let mut sched = FaultSchedule::new(1);
    sched.push(sim.now() + 1_000_000, FaultKind::ArrFailure { arr: victim });
    compile(&sched, &spec, &mut sim).expect("compile");
    sim.run_to_quiescence();

    // §2.2 redundancy: clients already hold the co-ARR's reflected
    // routes, so every surviving router keeps a route for every prefix.
    let mut probe = ResilienceProbe::new(sim.now());
    probe.sample(&sim, &spec, true);
    assert_eq!(probe.currently_blackholed, 0, "blackholed after failover");
    assert_eq!(probe.loop_observations, 0);
    for (r, p) in &before {
        assert!(
            sim.node(*r).selected(p).is_some(),
            "{r:?} lost {p:?} after ARR failure"
        );
    }
    assert!(!sim.is_node_up(victim));
}

#[test]
fn session_flap_converges_back_to_reference() {
    let m = model();
    let (spec, mut sim) = converged_abrr(&m);
    let (_, reference) = converged_abrr(&m);

    // Flap a border↔ARR session: both sides purge, then resync.
    let arr = spec.all_arrs()[0];
    let border = m.routers[0];
    let mut sched = FaultSchedule::new(2);
    sched.push(
        sim.now() + 500_000,
        FaultKind::SessionFlap {
            a: border,
            b: arr,
            down_for: 2_000_000,
        },
    );
    compile(&sched, &spec, &mut sim).expect("compile");
    sim.run_to_quiescence();

    let prefixes = m.sorted_prefixes();
    assert!(audit::selections_equal(
        &sim, &reference, &m.routers, &prefixes
    ));
}

#[test]
fn router_crash_restart_resyncs_to_reference() {
    let m = model();
    let (spec, mut sim) = converged_abrr(&m);
    let (_, reference) = converged_abrr(&m);

    let victim = m.routers[1];
    let t_crash = sim.now() + 500_000;
    let down_for = 5_000_000;
    let mut sched = FaultSchedule::new(3);
    sched.push(
        t_crash,
        FaultKind::RouterCrash {
            node: victim,
            down_for,
        },
    );
    compile(&sched, &spec, &mut sim).expect("compile");

    // Run past the restart, then model the eBGP side re-advertising its
    // routes to the freshly restarted router (RIB loss wiped them).
    sim.run(RunLimits {
        max_events: u64::MAX,
        max_time: t_crash + down_for + 1,
    });
    assert!(sim.is_node_up(victim));
    let snapshot = churn::initial_snapshot(&m);
    let victims_routes: Vec<_> = snapshot
        .iter()
        .filter(|r| r.router == victim)
        .cloned()
        .collect();
    assert!(!victims_routes.is_empty());
    regen::replay(&mut sim, &victims_routes, 1_000);
    sim.run_to_quiescence();

    let prefixes = m.sorted_prefixes();
    assert!(audit::selections_equal(
        &sim, &reference, &m.routers, &prefixes
    ));
}

#[test]
fn ap_reassignment_transfers_service() {
    let m = model();
    let (spec, mut sim) = converged_abrr(&m);

    // Hand AP0 to the ARRs of AP1, then kill BOTH original AP0 ARRs.
    // If reassignment works, the new ARRs serve AP0 and nothing
    // blackholes; if it silently failed, killing the old ARRs would
    // strand every AP0 prefix at the pure-client routers.
    let old = spec.arrs_of(ApId(0)).to_vec();
    let new = spec.arrs_of(ApId(1)).to_vec();
    assert_eq!(old.len(), 2);
    let mut sched = FaultSchedule::new(4);
    sched.push(
        sim.now() + 500_000,
        FaultKind::ApReassign {
            ap: ApId(0),
            arrs: new.clone(),
        },
    );
    sched.push(
        sim.now() + 10_000_000,
        FaultKind::ArrFailure { arr: old[0] },
    );
    sched.push(
        sim.now() + 10_000_000,
        FaultKind::ArrFailure { arr: old[1] },
    );
    compile(&sched, &spec, &mut sim).expect("compile");
    sim.run_to_quiescence();

    let mut probe = ResilienceProbe::new(sim.now());
    probe.sample(&sim, &spec, true);
    assert_eq!(probe.currently_blackholed, 0);
    assert_eq!(probe.loop_observations, 0);
    // The gaining ARRs now hold managed routes for AP0 as well.
    for arr in &new {
        assert!(sim.node(*arr).arr_in_entries() > 0);
    }
}

#[test]
fn fault_run_is_deterministic() {
    let m = model();
    let run = || {
        let (spec, mut sim) = converged_abrr(&m);
        let sessions: Vec<(RouterId, RouterId)> = sim.sessions().map(|(pair, _)| pair).collect();
        // Session flaps and a crash in the same 30 s window, their
        // outages overlapping.
        let t0 = sim.now();
        let mut sched = FaultSchedule::new(77);
        for (i, at_s) in [(0, 2), (sessions.len() / 2, 9), (sessions.len() - 1, 17)] {
            let (a, b) = sessions[i];
            let down_for = 20_000_000;
            sched.push(
                t0 + at_s * 1_000_000,
                FaultKind::SessionFlap { a, b, down_for },
            );
        }
        let crash = FaultKind::RouterCrash {
            node: sessions[0].1,
            down_for: 45_000_000,
        };
        sched.push(t0 + 12_000_000, crash);
        compile(&sched, &spec, &mut sim).expect("compile");
        sim.run_to_quiescence();
        sim
    };
    let a = run();
    let b = run();
    let prefixes = m.sorted_prefixes();
    assert!(audit::selections_equal(&a, &b, &m.routers, &prefixes));
    for (r, node) in a.nodes() {
        assert_eq!(node.counters(), b.node(r).counters(), "{r:?} counters");
    }
    assert_eq!(a.dropped_messages(), b.dropped_messages());
    assert_eq!(a.now(), b.now());
}

#[test]
fn compile_rejects_invalid_faults() {
    let m = model();
    let (spec, mut sim) = converged_abrr(&m);

    let mut bad_arr = FaultSchedule::new(0);
    bad_arr.push(1, FaultKind::ArrFailure { arr: m.routers[0] });
    assert_eq!(
        compile(&bad_arr, &spec, &mut sim),
        Err(CompileError::NotAnArr(m.routers[0]))
    );

    let mut bad_session = FaultSchedule::new(0);
    bad_session.push(
        1,
        FaultKind::LinkDown {
            a: RouterId(1),
            b: RouterId(999_999),
        },
    );
    assert_eq!(
        compile(&bad_session, &spec, &mut sim),
        Err(CompileError::UnknownSession(RouterId(1), RouterId(999_999)))
    );

    let mut bad_target = FaultSchedule::new(0);
    bad_target.push(
        1,
        FaultKind::ApReassign {
            ap: ApId(0),
            arrs: vec![m.routers[0]],
        },
    );
    assert_eq!(
        compile(&bad_target, &spec, &mut sim),
        Err(CompileError::ReassignTargetNotArr(m.routers[0]))
    );
}
