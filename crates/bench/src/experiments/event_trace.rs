//! Per-routing-event microscope for the §4.2 processing claim: inject K
//! isolated routing events (one AS's routes re-announced with a changed
//! path at all its peering points) and count, per event, what each RR
//! fleet generates and transmits and what clients receive.
//!
//! This isolates the paper's core §4.2 mechanism: "in ABRR a change of
//! route only goes to its two ARRs, while in TBRR a change of route
//! occurs at possibly many TRRs" — and the ARR work-queue batching
//! ("the ARR will normally have received most or all of these updates
//! by the time it actually processes them").

use super::Def;
use crate::cli::{flag, POPS, PREFIXES, RPP, SEED};
use crate::pipeline::{col, f, lcol, t, Experiment, Table};
use abrr::ExternalEvent;
use bgp_types::Med;
use std::sync::Arc;
use workload::specs::{self, SpecOptions};
use workload::tier1::PrefixKind;
use workload::{Tier1Config, Tier1Model};

pub const DEF: Def = Def {
    name: "event_trace",
    about: "§4.2 event microscope — per-routing-event update costs",
    flags: &[
        SEED,
        PREFIXES,
        POPS,
        RPP,
        flag("events", "K", "isolated routing events to inject").or("10"),
    ],
    base: || Tier1Config {
        n_prefixes: 300,
        n_pops: 13,
        routers_per_pop: 24,
        ..Tier1Config::default()
    },
    artefacts: &[("event_trace.txt", "")],
    run,
};

fn run(exp: &Experiment) {
    let cfg = exp.args.tier1();
    let k_events: usize = exp.args.get_in("events", 1..=usize::MAX);
    exp.header(&format!(
        "seed={} prefixes={} pops={} routers/pop={} events={}",
        cfg.seed, cfg.n_prefixes, cfg.n_pops, cfg.routers_per_pop, k_events
    ));
    let model = Tier1Model::generate(cfg);
    // The K busiest peer prefixes, one event each.
    let mut plans: Vec<&workload::PrefixPlan> = model
        .prefixes
        .iter()
        .filter(|p| p.kind == PrefixKind::Peer)
        .collect();
    plans.sort_by_key(|p| std::cmp::Reverse(p.routes.len()));
    plans.truncate(k_events);

    let opts = SpecOptions {
        mrai_us: 5_000_000,
        account_bytes: true,
        ..Default::default()
    };

    let table = Table::new(vec![
        lcol("scheme", 6),
        col("RR gen/ev", 12),
        col("RR tx/ev", 12),
        col("RR bytes/ev", 14),
        col("client rx/ev", 16),
        col("client rx/node/ev", 16),
    ]);
    table.header();
    for (name, spec) in [
        (
            "ABRR",
            specs::abrr_spec(&model, model.view.pops.len(), 2, &opts),
        ),
        ("TBRR", specs::tbrr_spec(&model, 2, false, &opts)),
    ] {
        let rrs = if spec.mode.has_abrr() {
            spec.all_arrs()
        } else {
            spec.all_trrs()
        };
        let spec = Arc::new(spec);
        let mut run = exp.converge(spec.clone(), &model);
        let rr_w = run.window(&rrs);
        let cl_w = run.window(&model.routers);
        for (e, plan) in plans.iter().enumerate() {
            let peer_as = plan.routes[0].peer_as;
            let t0 = run.now() + 1_000_000;
            for (i, route) in plan
                .routes
                .iter()
                .filter(|r| r.peer_as == peer_as)
                .enumerate()
            {
                // Path change deeper in the Internet: alternate prepends.
                let mut attrs = if e % 2 == 0 {
                    route.attrs.with_as_prepended(peer_as)
                } else {
                    (*route.attrs).clone()
                };
                attrs.med = Some(Med((e % 2) as u32));
                run.sim.schedule_external(
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
            // Let each event fully settle before the next (isolation).
            run.advance_to(t0 + 60_000_000);
        }
        let rr_d = rr_w.delta(&run);
        let cl_d = cl_w.delta(&run);
        let k = plans.len() as f64;
        table.row(&[
            t(name),
            f(rr_d.generated as f64 / k, 1),
            f(rr_d.transmitted as f64 / k, 0),
            f(rr_d.bytes_transmitted as f64 / k, 0),
            f(cl_d.received as f64 / k, 0),
            f(cl_d.received as f64 / k / model.routers.len() as f64, 2),
        ]);
    }
    println!("\n# Paper mechanisms shown: ARR generations per event ≈ 2 (one per owning ARR,");
    println!("# batched); TRR generations per event ≈ 10-40 (every affected cluster re-decides);");
    println!("# ABRR pays more bytes per transmission (add-paths sets).");
}
