//! `show ip bgp`-style inspector: build a synthetic Tier-1 AS under a
//! chosen scheme, converge it, and dump what the routers know about a
//! prefix (or a summary of everything).
//!
//! Examples:
//!   cargo run --release -p abrr-bench --bin show_rib -- --mode abrr --aps 8
//!   cargo run --release -p abrr-bench --bin show_rib -- --mode tbrr --prefix 61.169.178.0/24
//!   cargo run --release -p abrr-bench --bin show_rib -- --mode abrr --router 5 --verbose

use abrr::prelude::*;
use abrr_bench::{flag, header, tier1_config, Args, Experiment, FlagSpec, AP_COUNTS};
use std::sync::Arc;
use workload::specs::{self, SpecOptions};
use workload::{Tier1Config, Tier1Model};

const FLAGS: &[FlagSpec] = &[
    flag(
        "mode",
        "M",
        "scheme: abrr | tbrr | tbrr-multi | mesh (default abrr)",
    ),
    flag("aps", "N", "address partitions for --mode abrr (default 8)"),
    flag("seed", "S", "workload RNG seed"),
    flag(
        "prefixes",
        "N",
        "routed prefixes in the model (default 200)",
    ),
    flag("pops", "P", "PoPs in the topology (default 6)"),
    flag("rpp", "R", "routers per PoP (default 4)"),
    flag("prefix", "P", "dump one prefix (a.b.c.d/len) across the AS"),
    flag("router", "N", "dump one router's RIB summary"),
    flag(
        "verbose",
        "",
        "per-ARR stored paths / per-prefix selections",
    ),
];

fn main() {
    let args = Args::parse("show_rib", FLAGS);
    let mode = args.choice("mode", "abrr", &["abrr", "tbrr", "tbrr-multi", "mesh"]);
    let n_aps = args.get_in("aps", 8, AP_COUNTS);
    let prefix: Option<Ipv4Prefix> = args.get_opt("prefix");
    let cfg = tier1_config(
        &args,
        Tier1Config {
            n_prefixes: 200,
            n_pops: 6,
            routers_per_pop: 4,
            ..Tier1Config::default()
        },
    );
    header(
        "RIB inspector",
        &format!(
            "mode={mode} seed={} prefixes={} pops={} rpp={}",
            cfg.seed, cfg.n_prefixes, cfg.n_pops, cfg.routers_per_pop
        ),
    );
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
    let exp = Experiment::from_args(&args);
    let run = exp.converge(spec.clone(), &model);
    println!(
        "# converged: quiesced={} ({} events)\n",
        run.outcome.quiesced, run.outcome.events
    );

    if let Some(prefix) = prefix {
        show_prefix(&run.sim, &spec, &model, &prefix, args.flag("verbose"));
    } else if args.map_get("router").is_some() {
        let rid: u32 = args.get("router", 0);
        show_router(&run.sim, RouterId(rid), args.flag("verbose"));
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
            sel.map(|s| format!("{}", s.attrs.as_path))
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
            println!("  {p} -> {:?} {}", sel.exit_router(), sel.attrs.as_path);
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
        let rib_in: usize = nodes.iter().map(|r| sim.node(*r).rib_in_size()).sum();
        let rib_out: usize = nodes.iter().map(|r| sim.node(*r).rib_out_size()).sum();
        let rx: u64 = nodes.iter().map(|r| sim.node(*r).counters().received).sum();
        let gen: u64 = nodes
            .iter()
            .map(|r| sim.node(*r).counters().generated)
            .sum();
        println!(
            "{label:<8} n={:<4} rib-in(avg)={:<8} rib-out(avg)={:<8} rx(avg)={:<8} gen(avg)={}",
            nodes.len(),
            rib_in / nodes.len(),
            rib_out / nodes.len(),
            rx / nodes.len() as u64,
            gen / nodes.len() as u64,
        );
    }
    println!("\nuse --prefix a.b.c.d/len or --router N [--verbose] to drill in");
}
