//! §3.5 — iBGP convergence time under MRAI.
//!
//! ABRR has two iBGP hops between border routers (client → ARR →
//! client); TBRR has three (client → TRR → TRR → client). MRAI pacing
//! is per peer and shared by all prefixes, so under ongoing background
//! churn every session's MRAI interval is busy with a random phase; a
//! new update then waits an expected ~MRAI/2 at *every* hop. More hops
//! ⇒ proportionally more delay — the paper's §3.5 argument.
//!
//! Method: converge a snapshot, start background churn, inject probe
//! announcements for fresh prefixes at random mid-churn instants, and
//! measure how long each takes to reach every router. Compare mean
//! probe latency: TBRR/ABRR ≈ 3/2.

use super::Def;
use crate::cli::{flag, MRAI_SECS, PREFIXES};
use crate::pipeline::{Experiment, Run};
use abrr::prelude::*;
use std::sync::Arc;
use workload::specs::{self, SpecOptions};
use workload::{churn, regen, ChurnConfig, Tier1Config, Tier1Model};

pub const DEF: Def = Def {
    name: "convergence",
    about: "§3.5 — convergence: probe latency under churn, MRAI x iBGP hops",
    flags: &[
        MRAI_SECS.or("5"),
        PREFIXES,
        flag("probes", "K", "probe announcements per configuration").or("8"),
    ],
    base: || Tier1Config {
        n_prefixes: 200,
        n_pops: 6,
        routers_per_pop: 4,
        ..Tier1Config::default()
    },
    artefacts: &[("convergence.txt", "")],
    run,
};

/// Mean probe-propagation latency (seconds) under background churn.
fn probe_latency(
    exp: &Experiment,
    spec: Arc<NetworkSpec>,
    model: &Tier1Model,
    n_probes: usize,
) -> f64 {
    // Sample at a time budget: single-path TBRR may not quiesce.
    let mut run: Run = exp.converge(spec, model);

    // Background churn keeps every session's MRAI interval busy with a
    // random phase.
    let churn_cfg = ChurnConfig {
        duration_us: (n_probes as u64 + 4) * 20_000_000,
        events_per_sec: 6.0,
        ..ChurnConfig::default()
    };
    let t0 = run.now();
    regen::replay(&mut run.sim, &churn::generate(model, &churn_cfg), 1);

    let mut total = 0.0f64;
    for k in 0..n_probes {
        // Fresh prefix per probe, injected mid-churn. Placed in the
        // *dense* low half of the address space so the probe's owning
        // ARRs are as busy as the TRRs are (a high-address probe would
        // ride an idle partition and skip MRAI waits entirely — itself
        // a nice ABRR isolation property, but not the §3.5 comparison).
        let prefix = Ipv4Prefix::new(0x0800_0000 + ((k as u32) << 16), 16);
        let border = model.routers[k % model.routers.len()];
        let t_probe = t0 + 10_000_000 + (k as u64) * 20_000_000;
        run.sim.schedule_external(
            t_probe,
            border,
            ExternalEvent::EbgpAnnounce {
                prefix,
                peer_as: Asn(7018),
                peer_addr: 40_000 + k as u32,
                attrs: Arc::new(PathAttributes::ebgp(
                    AsPath::sequence([Asn(7018)]),
                    NextHop(40_000 + k as u32),
                )),
            },
        );
        // Step-run in 100 ms slices until every router knows the probe.
        let mut t_done = None;
        let slice = 100_000u64;
        let mut horizon = t_probe;
        while t_done.is_none() {
            horizon += slice;
            run.advance_to(horizon);
            let all_know = model
                .routers
                .iter()
                .all(|r| run.sim.node(*r).selected(&prefix).is_some());
            if all_know {
                t_done = Some(horizon);
            }
            assert!(
                horizon < t_probe + 600_000_000,
                "probe did not propagate within 600 s"
            );
        }
        total += (t_done.unwrap() - t_probe) as f64 / 1e6;
    }
    total / n_probes as f64
}

fn run(exp: &Experiment) {
    let mrai_secs: u64 = exp.args.get("mrai-secs");
    let n_probes: usize = exp.args.get_in("probes", 1..=usize::MAX);
    let cfg = exp.args.tier1();
    exp.header(&format!(
        "MRAI={mrai_secs}s, {n_probes} probes, background churn randomizes MRAI phases"
    ));
    let model = Tier1Model::generate(cfg);

    let run_pair = |mrai_us: u64| -> (f64, f64) {
        let opts = SpecOptions {
            mrai_us,
            ..Default::default()
        };
        let ab = probe_latency(
            exp,
            Arc::new(specs::abrr_spec(&model, 6, 2, &opts)),
            &model,
            n_probes,
        );
        let tb = probe_latency(
            exp,
            Arc::new(specs::tbrr_spec(&model, 2, false, &opts)),
            &model,
            n_probes,
        );
        (ab, tb)
    };
    let (ab0, tb0) = run_pair(0);
    let (ab5, tb5) = run_pair(mrai_secs * 1_000_000);

    println!(
        "\n{:<8} {:>14} {:>16}",
        "scheme",
        "MRAI=0 (s)",
        &format!("MRAI={mrai_secs}s (s)")
    );
    println!("{:<8} {:>14.3} {:>16.2}", "ABRR", ab0, ab5);
    println!("{:<8} {:>14.3} {:>16.2}", "TBRR", tb0, tb5);
    println!(
        "\npaced TBRR/ABRR mean probe latency ratio: {:.2}   [paper §3.5: 3 hops vs 2 => ~1.5]",
        tb5 / ab5
    );
}
