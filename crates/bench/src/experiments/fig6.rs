//! Figure 6: *experimental* RIB-In / RIB-Out sizes of an ARR (at #APs ∈
//! {1,2,4,8,16,32}) and a TRR (13 clusters), min/avg/max across the RR
//! fleet after loading the initial RIB snapshot — compared against the
//! Appendix A analysis, as the paper does.
//!
//! The paper's observations reproduced here:
//! * ARR averages match the analysis exactly (±rounding);
//! * min/max spread is large with uniform address ranges and collapses
//!   with prefix-balanced APs (`--balanced`);
//! * TRR experimental values fall *below* the analysis (the analysis
//!   assumes uniform peering/BAL distribution, which maximizes them).

use super::Def;
use crate::cli::{flag, APS, AP_COUNTS, NO_TBRR, OUT, PREFIXES, SEED};
use crate::pipeline::{col, f, key, lcol, t, u, Cell, Experiment, Run, Table};
use crate::{fleet_stats, peak_rss_kb};
use analysis::{BalRegression, Params, RibSizes};
use bgp_types::RouterId;
use std::sync::Arc;
use std::time::Instant;
use workload::specs::{self, SpecOptions};
use workload::{Tier1Config, Tier1Model};

pub const DEF: Def = Def {
    name: "fig6",
    about: "Figure 6 — experimental RIB-In/RIB-Out of ARR/TRR vs analysis",
    flags: &[
        PREFIXES,
        SEED,
        flag(
            "balanced",
            "",
            "prefix-balanced APs instead of uniform address ranges",
        ),
        APS.or("1,2,4,8,16,32"),
        NO_TBRR,
        OUT,
    ],
    base: || Tier1Config {
        n_prefixes: 3_000,
        ..Tier1Config::default()
    },
    artefacts: &[
        ("fig6.txt", "--prefixes 1000"),
        ("fig6_balanced.txt", "--prefixes 1000 --balanced"),
    ],
    run,
};

fn run(exp: &Experiment) {
    let args = &exp.args;
    let cfg = args.tier1();
    let balanced = args.flag("balanced");
    let aps = args.list("aps", AP_COUNTS);
    let out: Option<String> = args.get_opt("out");
    exp.header(&format!(
        "seed={} prefixes={} pops={} routers/pop={} balanced_aps={}",
        cfg.seed, cfg.n_prefixes, cfg.n_pops, cfg.routers_per_pop, balanced
    ));
    let model = Tier1Model::generate(cfg.clone());
    let bal = model.avg_bal_all_peers();
    // The Appendix A comparison takes #BAL as the iBGP-visible average
    // (per-router bests; see Tier1Model::avg_visible_bal).
    let bal_all: f64 = model.avg_visible_bal();
    println!(
        "# measured #BAL: {bal:.2} (peer prefixes), {bal_all:.2} (all prefixes); F_paper(25)={:.2}",
        BalRegression::PAPER.eval(25.0)
    );
    let table = Table::new(vec![
        key("fig"),
        lcol("config", 18).json("config"),
        key("prefixes"),
        key("seed"),
        col("in_min", 9),
        col("in_avg", 9).json("rib_in_avg"),
        col("in_max", 9).json("rib_in_max"),
        col("in_theory", 10),
        col("|", 1),
        col("out_min", 9),
        col("out_avg", 9).json("rib_out_avg"),
        col("out_max", 9).json("rib_out_max"),
        col("out_theory", 10),
        key("wall_ms"),
        key("rss_peak_kb"),
        key("quiesced"),
    ]);
    table.header();

    let opts = SpecOptions {
        mrai_us: 1_000_000,
        balanced_aps: balanced,
        ..Default::default()
    };
    let params = |partitions: usize| Params {
        prefixes: model.prefixes.len() as f64,
        partitions: partitions as f64,
        rrs: (2 * partitions) as f64,
        bal: bal_all,
    };
    let report = |config: String, run: &Run, rrs: &[RouterId], theory: RibSizes, wall: Instant| {
        let stats = fleet_stats(&run.sim, rrs);
        let (rib_in, rib_out) = (stats.rib_in, stats.rib_out);
        let cells = [
            t("fig6"),
            t(config),
            u(model.prefixes.len() as u64),
            u(cfg.seed),
            f(rib_in.min, 0),
            f(rib_in.avg, 0),
            f(rib_in.max, 0),
            f(theory.rib_in(), 0),
            t("|"),
            f(rib_out.min, 0),
            f(rib_out.avg, 0),
            f(rib_out.max, 0),
            f(theory.rib_out, 0),
            f(wall.elapsed().as_secs_f64() * 1e3, 1),
            u(peak_rss_kb()),
            Cell::B(run.outcome.quiesced),
        ];
        if out.is_some() {
            table.json(&cells).emit(out.as_deref());
        }
        table.row(&cells);
    };

    for n_aps in aps {
        let wall = Instant::now();
        let spec = Arc::new(specs::abrr_spec(&model, n_aps, 2, &opts));
        let arrs = spec.all_arrs();
        let name = format!("ABRR #APs={n_aps}");
        let run = exp.converge(spec, &model).require_quiesced(&name);
        report(name, &run, &arrs, analysis::abrr(&params(n_aps)), wall);
    }

    for multipath in [false, true] {
        if args.flag("no-tbrr") {
            break;
        }
        let wall = Instant::now();
        let spec = Arc::new(specs::tbrr_spec(&model, 2, multipath, &opts));
        let trrs = spec.all_trrs();
        let n_clusters = spec.clusters.len();
        let run = exp.converge(spec, &model);
        if !run.outcome.quiesced {
            println!(
                "# note: TBRR multipath={multipath} did not quiesce (single-path TBRR can \
                 oscillate persistently); sizes sampled at t={}s",
                run.outcome.end_time / 1_000_000
            );
        }
        let theory = if multipath {
            analysis::tbrr_multi(&params(n_clusters))
        } else {
            analysis::tbrr(&params(n_clusters))
        };
        let name = format!(
            "TBRR{} #C={n_clusters}",
            if multipath { "-multi" } else { "" }
        );
        report(name, &run, &trrs, theory, wall);
    }
}
