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
//!
//! Run: `cargo run --release -p abrr-bench --bin fig6
//!       [--prefixes N] [--seed S] [--balanced]`

use abrr_bench::pipeline::{col, f, lcol, t, JsonRow, Table};
use abrr_bench::{
    flag, peak_rss_kb, tier1_config, Args, Experiment, FlagSpec, MinAvgMax, AP_COUNTS,
};
use analysis::{BalRegression, Params};
use std::sync::Arc;
use std::time::Instant;
use workload::specs::{self, SpecOptions};
use workload::{Tier1Config, Tier1Model};

const FLAGS: &[FlagSpec] = &[
    flag(
        "prefixes",
        "N",
        "routed prefixes in the model (default 3000)",
    ),
    flag("seed", "S", "workload RNG seed"),
    flag(
        "balanced",
        "",
        "prefix-balanced APs instead of uniform address ranges",
    ),
    flag(
        "aps",
        "LIST",
        "comma-separated #AP sweep (default 1,2,4,8,16,32)",
    ),
    flag("no-tbrr", "", "skip the TBRR comparison configs"),
    flag(
        "out",
        "FILE",
        "append one JSON row per config to FILE (adds wall/RSS columns)",
    ),
];

fn row(table: &Table, config: String, stats: (MinAvgMax, MinAvgMax), theory: analysis::RibSizes) {
    let (rib_in, rib_out) = stats;
    table.row(&[
        t(config),
        f(rib_in.min, 0),
        f(rib_in.avg, 0),
        f(rib_in.max, 0),
        f(theory.rib_in(), 0),
        t("|"),
        f(rib_out.min, 0),
        f(rib_out.avg, 0),
        f(rib_out.max, 0),
        f(theory.rib_out, 0),
    ]);
}

fn main() {
    let args = Args::parse("fig6", FLAGS);
    let cfg = tier1_config(
        &args,
        Tier1Config {
            n_prefixes: 3_000,
            ..Tier1Config::default()
        },
    );
    let balanced = args.flag("balanced");
    let exp = Experiment::start(
        &args,
        "Figure 6 — experimental RIB-In/RIB-Out of ARR/TRR vs analysis",
        &format!(
            "seed={} prefixes={} pops={} routers/pop={} balanced_aps={}",
            cfg.seed, cfg.n_prefixes, cfg.n_pops, cfg.routers_per_pop, balanced
        ),
    );
    let model = Tier1Model::generate(cfg.clone());
    let n_prefixes = model.prefixes.len() as f64;
    let bal = model.avg_bal_all_peers();
    // The Appendix A comparison takes #BAL as the iBGP-visible average
    // (per-router bests; see Tier1Model::avg_visible_bal).
    let bal_all: f64 = model.avg_visible_bal();
    println!(
        "# measured #BAL: {bal:.2} (peer prefixes), {bal_all:.2} (all prefixes); F_paper(25)={:.2}",
        BalRegression::PAPER.eval(25.0)
    );
    let table = Table::new(vec![
        lcol("config", 18),
        col("in_min", 9),
        col("in_avg", 9),
        col("in_max", 9),
        col("in_theory", 10),
        col("|", 1),
        col("out_min", 9),
        col("out_avg", 9),
        col("out_max", 9),
        col("out_theory", 10),
    ]);
    table.header();

    let opts = SpecOptions {
        mrai_us: 1_000_000,
        balanced_aps: balanced,
        ..Default::default()
    };
    let out = args.map_get("out");
    let emit = |config: &str, stats: &(MinAvgMax, MinAvgMax), wall_ms: f64, quiesced: bool| {
        if out.is_none() {
            return;
        }
        JsonRow::new()
            .str("fig", "fig6")
            .str("config", config)
            .usize("prefixes", model.prefixes.len())
            .u64("seed", cfg.seed)
            .f64("rib_in_avg", stats.0.avg, 0)
            .f64("rib_in_max", stats.0.max, 0)
            .f64("rib_out_avg", stats.1.avg, 0)
            .f64("rib_out_max", stats.1.max, 0)
            .f64("wall_ms", wall_ms, 1)
            .u64("rss_peak_kb", peak_rss_kb())
            .bool("quiesced", quiesced)
            .emit(out);
    };

    for n_aps in args.list("aps", &[1, 2, 4, 8, 16, 32], AP_COUNTS) {
        let wall = Instant::now();
        let spec = Arc::new(specs::abrr_spec(&model, n_aps, 2, &opts));
        let arrs = spec.all_arrs();
        let run = exp
            .converge(spec, &model)
            .require_quiesced(&format!("ABRR #APs={n_aps}"));
        let stats = abrr_bench::fleet_stats(&run.sim, &arrs);
        let theory = analysis::abrr(&Params {
            prefixes: n_prefixes,
            partitions: n_aps as f64,
            rrs: (2 * n_aps) as f64,
            bal: bal_all,
        });
        let name = format!("ABRR #APs={n_aps}");
        emit(
            &name,
            &(stats.rib_in, stats.rib_out),
            wall.elapsed().as_secs_f64() * 1e3,
            run.outcome.quiesced,
        );
        row(&table, name, (stats.rib_in, stats.rib_out), theory);
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
        let stats = abrr_bench::fleet_stats(&run.sim, &trrs);
        let params = Params {
            prefixes: n_prefixes,
            partitions: n_clusters as f64,
            rrs: (2 * n_clusters) as f64,
            bal: bal_all,
        };
        let theory = if multipath {
            analysis::tbrr_multi(&params)
        } else {
            analysis::tbrr(&params)
        };
        let name = format!(
            "TBRR{} #C={n_clusters}",
            if multipath { "-multi" } else { "" }
        );
        emit(
            &name,
            &(stats.rib_in, stats.rib_out),
            wall.elapsed().as_secs_f64() * 1e3,
            run.outcome.quiesced,
        );
        row(&table, name, (stats.rib_in, stats.rib_out), theory);
    }
    println!(
        "\n# Paper checks: ARR avg ≈ theory; TRR experimental < theory (uniformity assumptions);"
    );
    println!("# ARR RIBs ≪ TRR RIBs; uniform-AP min/max spread shrinks with --balanced.");
}
