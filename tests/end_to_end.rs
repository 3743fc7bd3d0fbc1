//! Cross-crate integration: the full §4 pipeline at small scale —
//! synthetic Tier-1 model → network specs → simulation → statistics —
//! checked against the paper's analytical expressions and qualitative
//! claims.

use abrr::prelude::*;
use abrr_repro_helpers::*;
use std::sync::Arc;
use workload::specs::{self, SpecOptions};
#[allow(unused_imports)]
use workload::PrefixKind;
use workload::{churn, regen, ChurnConfig, Tier1Config, Tier1Model};

/// Shared helpers for the integration tests.
mod abrr_repro_helpers {
    use super::*;

    pub fn small_model() -> Tier1Model {
        Tier1Model::generate(Tier1Config {
            n_prefixes: 200,
            n_pops: 6,
            routers_per_pop: 4,
            ..Tier1Config::default()
        })
    }

    /// Converges a snapshot; single-path TBRR may legitimately not
    /// quiesce (persistent oscillation), so sampling stops at a
    /// simulated-time budget.
    pub fn converge(spec: Arc<NetworkSpec>, model: &Tier1Model) -> Sim<BgpNode> {
        let mut sim = abrr::build_sim(spec);
        regen::replay(&mut sim, &churn::initial_snapshot(model), 1_000);
        sim.run(RunLimits {
            max_events: u64::MAX,
            max_time: 300_000_000,
        });
        sim
    }

    /// Like `converge` but requires quiescence (ABRR / full mesh).
    pub fn converge_strict(spec: Arc<NetworkSpec>, model: &Tier1Model) -> Sim<BgpNode> {
        let mut sim = abrr::build_sim(spec);
        regen::replay(&mut sim, &churn::initial_snapshot(model), 1_000);
        let out = sim.run(RunLimits {
            max_events: u64::MAX,
            max_time: 300_000_000,
        });
        assert!(out.quiesced, "did not converge");
        sim
    }

    pub fn avg<I: Iterator<Item = usize>>(iter: I) -> f64 {
        let v: Vec<usize> = iter.collect();
        v.iter().sum::<usize>() as f64 / v.len() as f64
    }
}

#[test]
fn arr_rib_sizes_match_appendix_a() {
    // The paper's Figure 6 finding: "the average experimental number of
    // RIB-In and RIB-Out entries for ARR matches the analysis exactly."
    let model = small_model();
    let n_prefixes = model.prefixes.len() as f64;
    let bal_all = model.avg_visible_bal();
    let opts = SpecOptions {
        mrai_us: 0,
        ..Default::default()
    };
    for n_aps in [2usize, 4] {
        let spec = Arc::new(specs::abrr_spec(&model, n_aps, 2, &opts));
        let arrs = spec.all_arrs();
        let sim = converge_strict(spec, &model);
        let theory = analysis::abrr(&analysis::Params {
            prefixes: n_prefixes,
            partitions: n_aps as f64,
            rrs: (2 * n_aps) as f64,
            bal: bal_all,
        });
        let in_avg = avg(arrs.iter().map(|r| sim.node(*r).rib_in_size()));
        let out_avg = avg(arrs.iter().map(|r| sim.node(*r).rib_out_size()));
        let in_err = (in_avg - theory.rib_in()).abs() / theory.rib_in();
        let out_err = (out_avg - theory.rib_out).abs() / theory.rib_out;
        assert!(
            in_err < 0.02,
            "#APs={n_aps}: RIB-In avg {in_avg} vs theory {} ({:.1}% off)",
            theory.rib_in(),
            100.0 * in_err
        );
        assert!(
            out_err < 0.02,
            "#APs={n_aps}: RIB-Out avg {out_avg} vs theory {} ({:.1}% off)",
            theory.rib_out,
            100.0 * out_err
        );
    }
}

#[test]
fn trr_rib_sizes_do_not_exceed_analysis() {
    // Figure 6's other finding: the TRR analysis *over*estimates (its
    // uniformity assumptions maximize TRR RIBs).
    let model = small_model();
    let n_prefixes = model.prefixes.len() as f64;
    let bal_all = model.avg_visible_bal();
    let opts = SpecOptions {
        mrai_us: 0,
        ..Default::default()
    };
    let spec = Arc::new(specs::tbrr_spec(&model, 2, false, &opts));
    let trrs = spec.all_trrs();
    let n_clusters = spec.clusters.len() as f64;
    let sim = converge(spec, &model);
    let theory = analysis::tbrr(&analysis::Params {
        prefixes: n_prefixes,
        partitions: n_clusters,
        rrs: 2.0 * n_clusters,
        bal: bal_all,
    });
    let in_avg = avg(trrs.iter().map(|r| sim.node(*r).rib_in_size()));
    let out_avg = avg(trrs.iter().map(|r| sim.node(*r).rib_out_size()));
    assert!(
        in_avg <= theory.rib_in() * 1.05,
        "TRR RIB-In {in_avg} should not exceed analysis {}",
        theory.rib_in()
    );
    assert!(
        out_avg <= theory.rib_out * 1.05,
        "TRR RIB-Out {out_avg} should not exceed analysis {}",
        theory.rib_out
    );
}

#[test]
fn abrr_ribs_substantially_smaller_than_tbrr() {
    // §3.2's primary takeaway, on live engines.
    let model = small_model();
    let opts = SpecOptions {
        mrai_us: 0,
        ..Default::default()
    };
    let ab_spec = Arc::new(specs::abrr_spec(&model, 12, 2, &opts));
    let arrs = ab_spec.all_arrs();
    let ab = converge_strict(ab_spec, &model);
    let tb_spec = Arc::new(specs::tbrr_spec(&model, 2, false, &opts));
    let trrs = tb_spec.all_trrs();
    let tb = converge(tb_spec, &model);
    let arr_out = avg(arrs.iter().map(|r| ab.node(*r).rib_out_size()));
    let trr_out = avg(trrs.iter().map(|r| tb.node(*r).rib_out_size()));
    assert!(
        arr_out < trr_out / 2.0,
        "ARR RIB-Out {arr_out} should be well below TRR's {trr_out}"
    );
}

#[test]
fn abrr_matches_full_mesh_on_tier1_snapshot() {
    // §2.2 at workload scale: every router, every prefix.
    let model = small_model();
    let opts = SpecOptions {
        mrai_us: 0,
        ..Default::default()
    };
    let ab = converge_strict(Arc::new(specs::abrr_spec(&model, 4, 2, &opts)), &model);
    let fm = converge_strict(Arc::new(specs::full_mesh_spec(&model, &opts)), &model);
    let mut mismatches = 0usize;
    for plan in &model.prefixes {
        for r in &model.routers {
            let a = ab.node(*r).selected(&plan.prefix).map(|s| s.exit_router());
            let m = fm.node(*r).selected(&plan.prefix).map(|s| s.exit_router());
            if a != m {
                mismatches += 1;
            }
        }
    }
    assert_eq!(
        mismatches, 0,
        "ABRR selections must equal full-mesh on the Tier-1 snapshot"
    );
}

#[test]
fn no_forwarding_loops_after_churn() {
    let model = small_model();
    let opts = SpecOptions {
        mrai_us: 1_000_000,
        ..Default::default()
    };
    let spec = Arc::new(specs::abrr_spec(&model, 4, 2, &opts));
    let mut sim = converge_strict(spec.clone(), &model);
    let trace = churn::generate(
        &model,
        &ChurnConfig {
            duration_us: 60_000_000,
            events_per_sec: 3.0,
            ..ChurnConfig::default()
        },
    );
    regen::replay(&mut sim, &trace, 1);
    assert!(sim.run_to_quiescence().quiesced);
    let prefixes: Vec<Ipv4Prefix> = model.prefixes.iter().map(|p| p.prefix).collect();
    assert_eq!(abrr::audit::count_loops(&sim, &spec, &prefixes), 0);
}

#[test]
fn per_event_generation_asymmetry() {
    // §4.2's core mechanism: "in ABRR a change of route only goes to
    // its two ARRs, while in TBRR a change of route occurs at possibly
    // many TRRs". One routing event (an AS's routes re-announced with a
    // longer path at all its peering points) must cost ~2 ARR
    // generations but many TRR generations.
    let model = small_model();
    let plan = model
        .prefixes
        .iter()
        .filter(|p| p.kind == workload::PrefixKind::Peer)
        .max_by_key(|p| p.routes.len())
        .expect("peer prefix");
    // Re-announcing an AS's routes only causes updates if some routers
    // currently select them; the AS with the shortest path is in the
    // best-AS-level set (all peer routes tie on LOCAL_PREF), so its
    // geographically-spread peering points win hot-potato somewhere.
    let peer_as = plan
        .routes
        .iter()
        .min_by_key(|r| r.attrs.as_path_len())
        .expect("peer route")
        .peer_as;
    let opts = SpecOptions {
        mrai_us: 5_000_000,
        ..Default::default()
    };
    let run_event = |spec: Arc<NetworkSpec>, rrs: Vec<RouterId>| -> u64 {
        let mut sim = converge(spec, &model);
        let before: u64 = rrs.iter().map(|r| sim.node(*r).counters().generated).sum();
        let t0 = sim.now() + 1_000_000;
        for (i, route) in plan
            .routes
            .iter()
            .filter(|r| r.peer_as == peer_as)
            .enumerate()
        {
            let attrs = route.attrs.with_as_prepended(peer_as);
            sim.schedule_external(
                t0 + (i as u64) * 30_000,
                route.router,
                ExternalEvent::EbgpAnnounce {
                    prefix: plan.prefix,
                    peer_as,
                    peer_addr: route.peer_addr,
                    attrs: Arc::new(attrs),
                },
            );
        }
        sim.run(RunLimits {
            max_events: u64::MAX,
            max_time: t0 + 60_000_000,
        });
        let after: u64 = rrs.iter().map(|r| sim.node(*r).counters().generated).sum();
        after - before
    };
    let ab_spec = Arc::new(specs::abrr_spec(&model, model.view.pops.len(), 2, &opts));
    let ab_rrs = ab_spec.all_arrs();
    let ab_gen = run_event(ab_spec, ab_rrs);
    let tb_spec = Arc::new(specs::tbrr_spec(&model, 2, false, &opts));
    let tb_rrs = tb_spec.all_trrs();
    let tb_gen = run_event(tb_spec, tb_rrs);
    assert!(
        ab_gen <= 6,
        "one event should cost the owning ARRs only a few generations, got {ab_gen}"
    );
    assert!(
        tb_gen > ab_gen,
        "the same event must cost TBRR more generations: tbrr={tb_gen} abrr={ab_gen}"
    );
}

#[test]
fn abrr_updates_are_longer_but_fewer_bytes_tradeoff() {
    // §4.2 / §3.3: ABRR trades processing (fewer generated updates) for
    // bandwidth (longer updates). Check both directions of the trade.
    let model = small_model();
    let opts = SpecOptions {
        mrai_us: 1_000_000,
        account_bytes: true,
        ..Default::default()
    };
    let run = |spec: Arc<NetworkSpec>, rrs: Vec<RouterId>| -> (f64, f64, f64) {
        let sim = converge(spec, &model);
        let _ = &sim;
        let gen: u64 = rrs.iter().map(|r| sim.node(*r).counters().generated).sum();
        let tx: u64 = rrs
            .iter()
            .map(|r| sim.node(*r).counters().transmitted)
            .sum();
        let bytes: u64 = rrs
            .iter()
            .map(|r| sim.node(*r).counters().bytes_transmitted)
            .sum();
        (
            gen as f64 / rrs.len() as f64,
            tx as f64 / rrs.len() as f64,
            bytes as f64 / tx.max(1) as f64,
        )
    };
    let ab_spec = Arc::new(specs::abrr_spec(&model, model.view.pops.len(), 2, &opts));
    let ab_rrs = ab_spec.all_arrs();
    let (ab_gen, _ab_tx, ab_bytes_per_update) = run(ab_spec, ab_rrs);
    let tb_spec = Arc::new(specs::tbrr_spec(&model, 2, false, &opts));
    let tb_rrs = tb_spec.all_trrs();
    let (tb_gen, _tb_tx, tb_bytes_per_update) = run(tb_spec, tb_rrs);
    assert!(
        ab_gen < tb_gen,
        "ARRs should generate fewer updates: {ab_gen:.0} vs {tb_gen:.0}"
    );
    assert!(
        ab_bytes_per_update > tb_bytes_per_update,
        "ABRR updates should be longer on the wire: {ab_bytes_per_update:.0} vs {tb_bytes_per_update:.0}"
    );
}

#[test]
fn trace_speedup_changes_little() {
    // §4: replaying ~20x faster changed the paper's update counts by
    // <3%. At our scale-down, a 20x compression squeezes events *into*
    // the MRAI/work-queue coalescing windows (two weeks compressed 20x
    // still leaves hours between coalescing windows; two minutes does
    // not), so the faithful comparison disables pacing: with
    // per-message processing the counts must be nearly rate-independent.
    let model = small_model();
    let opts = SpecOptions {
        mrai_us: 0,
        ..Default::default()
    };
    let churn_cfg = ChurnConfig {
        duration_us: 60_000_000,
        events_per_sec: 2.0,
        ..ChurnConfig::default()
    };
    let run = |speedup: u64| -> u64 {
        let mut spec = specs::abrr_spec(&model, 4, 2, &opts);
        spec.proc_delay_base_us = 0;
        spec.proc_delay_spread_us = 0;
        spec.rr_proc_delay_base_us = 0;
        spec.rr_proc_delay_spread_us = 0;
        let mut sim = converge(Arc::new(spec), &model);
        regen::replay(&mut sim, &churn::generate(&model, &churn_cfg), speedup);
        assert!(sim.run_to_quiescence().quiesced);
        model
            .routers
            .iter()
            .map(|r| sim.node(*r).counters().received)
            .sum()
    };
    let realtime = run(1) as f64;
    let fast = run(20) as f64;
    let diff = (realtime - fast).abs() / realtime;
    assert!(
        diff < 0.10,
        "received-update counts should be feed-rate insensitive: {realtime} vs {fast} ({:.1}%)",
        100.0 * diff
    );
}
