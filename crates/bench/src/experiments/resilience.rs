//! §2.2 — resilience: RR failure under churn, ABRR vs TBRR vs mesh.
//!
//! The paper's redundancy argument: "more than one ARR can be assigned
//! to serve an address partition", so an ARR failure is absorbed by the
//! partition's surviving ARRs — clients already hold the reflected
//! paths and fail over without waiting for any protocol exchange. This
//! experiment kills one ARR (redundancy 2), one TRR (of a 2-TRR
//! cluster, the comparable deployed config), and — since a full mesh
//! has no RR to lose — one border router, under the scaled two-week
//! churn trace, and reports per scheme:
//!
//!   * reconvergence time — quiet failover (no churn): simulated time
//!     from the kill until the event queue drains; and under churn:
//!     time until no surviving router is blackholed;
//!   * update storm — extra updates generated/transmitted by survivors
//!     in the observation window after the kill, baseline-corrected by
//!     the same-length window of pure churn before it;
//!   * blackhole duration — total and peak over surviving router ×
//!     still-reachable prefix pairs, plus forwarding-loop observations.
//!
//! Reflection engines show *nonzero baseline* staleness under churn
//! even with no fault: the spec models RR update-processing delays of
//! 100 ms – 1.6 s (§4.2), so a client points at a withdrawn exit until
//! its RR pushes the replacement, while mesh routers switch as soon as
//! the one-hop withdrawal arrives. The kill column is therefore read
//! against the base column; the delta is the *redundancy-degradation*
//! cost — with one of the AP's two ARRs (or the cluster's two TRRs)
//! gone, clients wait on the slower surviving reflector alone.

use super::Def;
use crate::cli::{flag, MRAI_SECS, PREFIXES, SEED};
use crate::pipeline::{col, f, i, lcol, t, u, Experiment, Run, Table};
use crate::SETTLE_BUDGET_US;
use abrr::prelude::*;
use faults::{compile, FaultKind, FaultSchedule, ResilienceProbe};
use std::sync::Arc;
use workload::specs::{self, SpecOptions};
use workload::{churn, regen, ChurnConfig, Tier1Config, Tier1Model};

pub const DEF: Def = Def {
    name: "resilience",
    about: "§2.2 — resilience: RR failure under churn, ABRR vs TBRR vs mesh",
    flags: &[
        SEED,
        PREFIXES,
        MRAI_SECS.or("0"),
        flag("observe-secs", "W", "observation window length in seconds").or("20"),
        flag("slice-ms", "S", "blackhole sampling slice in milliseconds").or("250"),
    ],
    base: || Tier1Config {
        seed: 11,
        n_prefixes: 300,
        n_pops: 3,
        routers_per_pop: 3,
        ..Tier1Config::default()
    },
    artefacts: &[("resilience.txt", "")],
    run,
};

struct Scenario {
    name: &'static str,
    spec: Arc<NetworkSpec>,
    victim: RouterId,
    kill: FaultKind,
}

#[derive(Default)]
struct Report {
    baseline_quiesced: bool,
    quiet_reconverge_s: f64,
    quiet_quiesced: bool,
    quiet_generated: u64,
    quiet_transmitted: u64,
    quiet_loops: u64,
    churn_heal_ms: Option<f64>,
    storm_generated: i64,
    storm_transmitted: i64,
    baseline_blackhole_ms: f64,
    blackhole_ms: f64,
    peak_blackholed: usize,
    loop_observations: u64,
    final_blackholed: usize,
}

/// Schedules the scenario's kill at `at`.
fn schedule_kill(scn: &Scenario, seed: u64, at: netsim::Time, sim: &mut netsim::Sim<BgpNode>) {
    let mut sched = FaultSchedule::new(seed);
    sched.push(at, scn.kill.clone());
    // Invariant: each kill names a router (an ARR for `ArrFailure`) of
    // the spec the sim was built from.
    compile(&sched, &scn.spec, sim).expect("schedule compiles");
}

/// Everything except the victim.
fn survivors(scn: &Scenario) -> Vec<RouterId> {
    scn.spec
        .all_nodes()
        .into_iter()
        .filter(|r| *r != scn.victim)
        .collect()
}

/// Quiet failover: kill on an otherwise idle converged network and let
/// it requiesce. Reconvergence is pure failure-absorption time.
/// `baseline_quiesced` records whether the snapshot load drained —
/// single-path TBRR can oscillate persistently even without faults
/// (§2.3), which makes its quiescence-based reconvergence time
/// unmeasurable.
fn quiet_failover(
    exp: &Experiment,
    scn: &Scenario,
    model: &Tier1Model,
    seed: u64,
    rep: &mut Report,
) {
    let mut run: Run = exp.converge(scn.spec.clone(), model);
    rep.baseline_quiesced = run.outcome.quiesced;
    let survivors = survivors(scn);
    let t_kill = run.now() + 1_000_000;
    schedule_kill(scn, seed, t_kill, &mut run.sim);
    let window = run.window(&survivors);
    run.advance_to(t_kill + SETTLE_BUDGET_US);
    let delta = window.delta(&run);
    rep.quiet_reconverge_s = run.outcome.end_time.saturating_sub(t_kill) as f64 / 1e6;
    rep.quiet_quiesced = run.outcome.quiesced;
    rep.quiet_generated = delta.generated;
    rep.quiet_transmitted = delta.transmitted;

    // Post-failover audit on the quiet run: every surviving router must
    // have a live route for every still-reachable prefix.
    let mut probe = ResilienceProbe::new(run.now());
    probe.sample(&run.sim, &scn.spec, true);
    rep.final_blackholed = probe.currently_blackholed;
    rep.quiet_loops = probe.loop_observations;
}

/// Failover under the churn trace: baseline window, kill, observation
/// window with time-sliced blackhole sampling.
fn churn_failover(
    exp: &Experiment,
    scn: &Scenario,
    model: &Tier1Model,
    seed: u64,
    observe_us: u64,
    slice_us: u64,
    rep: &mut Report,
) {
    let mut run: Run = exp.converge(scn.spec.clone(), model);
    let survivors = survivors(scn);

    // Scaled two-week churn trace (tier1 default), long enough to cover
    // baseline + observation windows.
    let churn_cfg = ChurnConfig {
        seed,
        duration_us: 2 * observe_us + 30_000_000,
        events_per_sec: 4.0,
        ..ChurnConfig::default()
    };
    let t0 = run.now();
    regen::replay(&mut run.sim, &churn::generate(model, &churn_cfg), 1);
    let t_kill = t0 + observe_us + 5_000_000;
    schedule_kill(scn, seed, t_kill, &mut run.sim);

    // Baseline window [t_kill - W, t_kill): pure churn, no fault yet.
    // Sampled with its own probe so the churn trace's intrinsic stale
    // windows (a flapped route is briefly stale everywhere while the
    // withdrawal propagates) can be subtracted from the post-kill
    // numbers.
    run.advance_to(t_kill - observe_us);
    let base_window = run.window(&survivors);
    let mut base_probe = ResilienceProbe::new(t_kill - observe_us);
    let mut horizon = t_kill - observe_us;
    while horizon < t_kill - 1 {
        horizon = (horizon + slice_us).min(t_kill - 1);
        run.advance_to(horizon);
        base_probe.sample(&run.sim, &scn.spec, false);
    }
    let churn_baseline = base_window.delta(&run);

    // Observation window (t_kill, t_kill + W]: sample blackholes and
    // loops every slice; heal time is the first zero-blackhole sample.
    let kill_window = run.window(&survivors);
    let mut probe = ResilienceProbe::new(t_kill - 1);
    let mut heal_at: Option<netsim::Time> = None;
    let mut horizon = t_kill - 1;
    while horizon < t_kill - 1 + observe_us {
        horizon += slice_us;
        run.advance_to(horizon);
        probe.sample(&run.sim, &scn.spec, true);
        if heal_at.is_none() && probe.currently_blackholed == 0 && horizon > t_kill {
            heal_at = Some(horizon);
        }
    }
    let with_fault = kill_window.delta(&run);

    rep.storm_generated = with_fault.generated as i64 - churn_baseline.generated as i64;
    rep.storm_transmitted = with_fault.transmitted as i64 - churn_baseline.transmitted as i64;
    rep.churn_heal_ms = heal_at.map(|t| t.saturating_sub(t_kill) as f64 / 1e3);
    rep.baseline_blackhole_ms = base_probe.total_blackhole_us() as f64 / 1e3;
    rep.blackhole_ms = probe.total_blackhole_us() as f64 / 1e3;
    rep.peak_blackholed = probe.peak_blackholed;
    rep.loop_observations = probe.loop_observations;
}

fn run(exp: &Experiment) {
    let args = &exp.args;
    let mrai_secs: u64 = args.get("mrai-secs");
    let observe_secs: u64 = args.get("observe-secs");
    // A zero slice would sample the same instant forever.
    let slice_ms: u64 = args.get_in("slice-ms", 1..=u64::MAX);
    let cfg = args.tier1();
    let seed = cfg.seed;
    exp.header(&format!(
        "seed={seed}, {} prefixes, MRAI={mrai_secs}s, observe={observe_secs}s, slice={slice_ms}ms",
        cfg.n_prefixes
    ));
    let model = Tier1Model::generate(cfg);
    let opts = SpecOptions {
        mrai_us: mrai_secs * 1_000_000,
        ..Default::default()
    };

    let ab = Arc::new(specs::abrr_spec(&model, 4, 2, &opts));
    let tb = Arc::new(specs::tbrr_spec(&model, 2, false, &opts));
    let fm = Arc::new(specs::full_mesh_spec(&model, &opts));
    let scenarios = [
        Scenario {
            victim: ab.all_arrs()[0],
            kill: FaultKind::ArrFailure {
                arr: ab.all_arrs()[0],
            },
            name: "ABRR (ARR kill)",
            spec: ab,
        },
        Scenario {
            victim: tb.clusters[0].trrs[0],
            kill: FaultKind::RouterDown {
                node: tb.clusters[0].trrs[0],
            },
            name: "TBRR (TRR kill)",
            spec: tb,
        },
        Scenario {
            victim: model.routers[0],
            kill: FaultKind::RouterDown {
                node: model.routers[0],
            },
            name: "mesh (border kill)",
            spec: fm,
        },
    ];

    let mut reports = Vec::new();
    for scn in &scenarios {
        let mut rep = Report::default();
        quiet_failover(exp, scn, &model, seed, &mut rep);
        churn_failover(
            exp,
            scn,
            &model,
            seed,
            observe_secs * 1_000_000,
            slice_ms * 1_000,
            &mut rep,
        );
        println!("# {}: victim {:?}", scn.name, scn.victim);
        reports.push((scn.name, rep));
    }

    println!("\n## quiet failover (converged network, single kill, no churn)");
    let quiet = Table::new(vec![
        lcol("scheme", 20),
        col("reconv (s)", 14),
        col("upd gen", 10),
        col("upd xmit", 10),
        col("holes", 9),
        col("loops", 7),
    ]);
    quiet.header_row();
    for (name, r) in &reports {
        let reconv = if !r.baseline_quiesced || !r.quiet_quiesced {
            "no quiesce".to_string()
        } else {
            format!("{:.3}", r.quiet_reconverge_s)
        };
        quiet.row(&[
            t(*name),
            t(reconv),
            u(r.quiet_generated),
            u(r.quiet_transmitted),
            u(r.final_blackholed as u64),
            u(r.quiet_loops),
        ]);
    }

    println!("\n## failover under churn (storm and blackhole are baseline-corrected vs");
    println!("## an equal pre-kill window of pure churn; loops are transient samples)");
    let churned = Table::new(vec![
        lcol("scheme", 20),
        col("heal (ms)", 10),
        col("storm gen", 11),
        col("storm xmit", 11),
        col("bh base (ms)", 14),
        col("bh kill (ms)", 14),
        col("peak bh", 8),
        col("loops", 6),
    ]);
    churned.header_row();
    for (name, r) in &reports {
        churned.row(&[
            t(*name),
            t(r.churn_heal_ms
                .map(|m| format!("{m:.0}"))
                .unwrap_or_else(|| ">window".into())),
            i(r.storm_generated),
            i(r.storm_transmitted),
            f(r.baseline_blackhole_ms, 1),
            f(r.blackhole_ms, 1),
            u(r.peak_blackholed as u64),
            u(r.loop_observations),
        ]);
    }

    let (_, abrr) = &reports[0];
    println!(
        "\nABRR after ARR kill: {} blackholed (router, prefix) pairs, {} updates generated \
         on the quiet run — clients fail over to the partition's redundant ARR with no \
         protocol exchange at all (§2.2).",
        abrr.final_blackholed, abrr.quiet_generated
    );
    assert_eq!(
        abrr.final_blackholed, 0,
        "ABRR clients must reach zero blackholed prefixes via the redundant ARR"
    );
}
