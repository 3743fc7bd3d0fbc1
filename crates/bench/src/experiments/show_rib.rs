//! `show ip bgp`-style inspector: build a synthetic Tier-1 AS under a
//! chosen scheme, converge it, and dump what the routers know about a
//! prefix (or a summary of everything), e.g.
//! `repro show_rib --mode tbrr --prefix 61.169.178.0/24` or
//! `repro show_rib --router 5 --verbose`.

use super::Def;
use crate::cli::{flag, APS, AP_COUNTS, POPS, PREFIXES, RPP, SEED};
use crate::fleet_stats;
use crate::pipeline::Experiment;
use abrr::prelude::*;
use std::sync::Arc;
use workload::specs::{self, SpecOptions};
use workload::{Tier1Config, Tier1Model};

pub const DEF: Def = Def {
    name: "show_rib",
    about: "RIB inspector",
    flags: &[
        flag("mode", "M", "scheme: abrr | tbrr | tbrr-multi | mesh").or("abrr"),
        APS.or("8"),
        SEED,
        PREFIXES,
        POPS,
        RPP,
        flag("prefix", "P", "dump one prefix (a.b.c.d/len) across the AS"),
        flag("router", "N", "dump one router's RIB summary"),
        flag(
            "verbose",
            "",
            "per-ARR stored paths / per-prefix selections",
        ),
    ],
    base: || Tier1Config {
        n_prefixes: 200,
        n_pops: 6,
        routers_per_pop: 4,
        ..Tier1Config::default()
    },
    artefacts: &[],
    run,
};

fn run(exp: &Experiment) {
    let args = &exp.args;
    let mode = args.choice("mode", &["abrr", "tbrr", "tbrr-multi", "mesh"]);
    let n_aps = args.get_in("aps", AP_COUNTS);
    let prefix: Option<Ipv4Prefix> = args.get_opt("prefix");
    let router: Option<u32> = args.get_opt("router");
    let cfg = args.tier1();
    exp.header(&format!(
        "mode={mode} seed={} prefixes={} pops={} rpp={}",
        cfg.seed, cfg.n_prefixes, cfg.n_pops, cfg.routers_per_pop
    ));
    let model = Tier1Model::generate(cfg);
    let opts = SpecOptions {
        mrai_us: 0,
        ..Default::default()
    };
    let spec = Arc::new(match mode {
        "abrr" => specs::abrr_spec(&model, n_aps, 2, &opts),
        "tbrr" => specs::tbrr_spec(&model, 2, false, &opts),
        "tbrr-multi" => specs::tbrr_spec(&model, 2, true, &opts),
        // "mesh": `choice` admits nothing else.
        _ => specs::full_mesh_spec(&model, &opts),
    });
    let router = router.map(RouterId);
    if router.is_some_and(|r| !spec.all_nodes().contains(&r)) {
        args.reject("router", "no router has this id in the model");
    }
    let run = exp.converge(spec.clone(), &model);
    println!(
        "# converged: quiesced={} ({} events)\n",
        run.outcome.quiesced, run.outcome.events
    );

    if let Some(prefix) = prefix {
        show_prefix(&run.sim, &spec, &model, &prefix, args.flag("verbose"));
    } else if let Some(r) = router {
        show_router(&run.sim, r, args.flag("verbose"));
    } else {
        summary(&run.sim, &spec, &model);
    }
}

fn show_prefix(
    sim: &Sim<BgpNode>,
    spec: &NetworkSpec,
    model: &Tier1Model,
    prefix: &Ipv4Prefix,
    verbose: bool,
) {
    println!("## {prefix} as seen across the AS");
    if let Some(map) = &spec.ap_map {
        let aps = map.aps_for_prefix(prefix);
        print!("address partitions: {aps:?}; ARRs:");
        for ap in &aps {
            print!(" {:?}", spec.arrs_of(*ap));
        }
        println!();
    }
    println!(
        "{:<10} {:>10} {:>10} {:>26}",
        "router", "exit", "backup", "as-path"
    );
    for r in &model.routers {
        let node = sim.node(*r);
        let sel = node.selected(prefix);
        let backup = node.backup_route(prefix);
        println!(
            "{:<10} {:>10} {:>10} {:>26}",
            format!("{r:?}"),
            sel.map(|s| format!("{:?}", s.exit_router()))
                .unwrap_or("-".into()),
            backup
                .map(|s| format!("{:?}", s.exit_router()))
                .unwrap_or("-".into()),
            sel.map(|s| format!("{}", s.attrs.as_path()))
                .unwrap_or_default()
        );
        if verbose {
            for arr in spec.all_arrs() {
                let paths = node.client_paths_from(arr, prefix);
                if !paths.is_empty() {
                    println!("      from {arr:?}: {} stored path(s)", paths.len());
                }
            }
        }
    }
    // Forwarding audit for this prefix.
    let loops = abrr::audit::count_loops(sim, spec, &[*prefix]);
    println!("forwarding loops: {loops}");
}

fn show_router(sim: &Sim<BgpNode>, r: RouterId, verbose: bool) {
    let node = sim.node(r);
    println!("## router {r:?}");
    println!("loc-rib prefixes : {}", node.loc_rib_len());
    println!("rib-in entries   : {}", node.rib_in_size());
    println!("  eBGP           : {}", node.ebgp_entries());
    println!("  client role    : {}", node.client_in_entries());
    println!("  ARR managed    : {}", node.arr_in_entries());
    println!("  TRR role       : {}", node.trr_in_entries());
    println!("rib-out entries  : {}", node.rib_out_size());
    println!("counters         : {:?}", node.counters());
    if verbose {
        println!("\nselections:");
        for (p, sel) in node.selections().take(50) {
            println!("  {p} -> {:?} {}", sel.exit_router(), sel.attrs.as_path());
        }
    }
}

fn summary(sim: &Sim<BgpNode>, spec: &NetworkSpec, model: &Tier1Model) {
    println!("## per-role summary");
    let rrs: Vec<RouterId> = if spec.mode.has_abrr() {
        spec.all_arrs()
    } else if spec.mode.has_tbrr() {
        spec.all_trrs()
    } else {
        Vec::new()
    };
    for (label, nodes) in [("RRs", &rrs), ("clients", &model.routers)] {
        if nodes.is_empty() {
            continue;
        }
        let s = fleet_stats(sim, nodes);
        let n = nodes.len() as u64;
        println!(
            "{label:<8} n={n:<4} rib-in(avg)={:<8} rib-out(avg)={:<8} rx(avg)={:<8} gen(avg)={}",
            s.rib_in.avg as u64,
            s.rib_out.avg as u64,
            s.totals.received / n,
            s.totals.generated / n,
        );
    }
    println!("\nuse --prefix a.b.c.d/len or --router N [--verbose] to drill in");
}
