//! Figure 7: number of updates *received* and *generated* by an
//! ARR/TRR over the churn trace (the paper's two weeks, scaled), vs the
//! number of APs; TRR shown at 13 clusters.
//!
//! Reproduced shapes: received updates grow (then flatten) with #APs;
//! generated updates shrink dramatically with #APs and stay a small
//! fraction of the TRR numbers.

use super::Def;
use crate::cli::{APS, AP_COUNTS, MINUTES, NO_TBRR, OUT, PREFIXES, RATE, RATES, SEED};
use crate::peak_rss_kb;
use crate::pipeline::{col, f, key, lcol, t, u, Cell, Experiment, Run, Table};
use bgp_types::RouterId;
use std::sync::Arc;
use std::time::Instant;
use workload::specs::{self, SpecOptions};
use workload::{ChurnConfig, Tier1Config, Tier1Model};

pub const DEF: Def = Def {
    name: "fig7",
    about: "Figure 7 — updates received/generated by an ARR/TRR over the churn trace",
    flags: &[
        PREFIXES,
        SEED,
        MINUTES.or("10"),
        RATE.or("2.0"),
        APS.or("1,2,4,8,16,32"),
        NO_TBRR,
        OUT,
    ],
    base: || Tier1Config {
        n_prefixes: 3_000,
        ..Tier1Config::default()
    },
    artefacts: &[("fig7.txt", "")],
    run,
};

fn run(exp: &Experiment) {
    let args = &exp.args;
    let cfg = args.tier1();
    let minutes: u64 = args.get("minutes");
    let rate: f64 = args.get_in("rate", RATES);
    let aps = args.list("aps", AP_COUNTS);
    let out: Option<String> = args.get_opt("out");
    let churn_cfg = ChurnConfig {
        duration_us: minutes * 60_000_000,
        events_per_sec: rate,
        ..ChurnConfig::default()
    };
    exp.header(&format!(
        "seed={} prefixes={} churn: {} min @ {} events/s (paper: 2 weeks of Tier-1 updates)",
        cfg.seed, cfg.n_prefixes, minutes, rate
    ));
    let model = Tier1Model::generate(cfg.clone());
    let opts = SpecOptions {
        mrai_us: 1_000_000,
        ..Default::default()
    };

    let table = Table::new(vec![
        key("fig"),
        lcol("config", 18).json("config"),
        key("prefixes"),
        key("seed"),
        key("minutes"),
        col("received/RR", 14).json("received_per_rr"),
        col("generated/RR", 14).json("generated_per_rr"),
        col("transmitted/RR", 16).json("transmitted_per_rr"),
        key("wall_ms"),
        key("rss_peak_kb"),
        key("quiesced"),
    ]);
    table.header();

    let report = |name: String, rrs: Vec<RouterId>, mut run: Run, wall: Instant| {
        let window = run.window(&rrs);
        let outcome = run.churn(&model, &churn_cfg);
        if !outcome.quiesced {
            println!("# note: {name} still churning at sampling time (persistent oscillation)");
        }
        let quiesced = outcome.quiesced;
        let d = window.delta(&run);
        let n = window.n();
        let cells = [
            t("fig7"),
            t(name),
            u(model.prefixes.len() as u64),
            u(cfg.seed),
            u(minutes),
            f(d.received as f64 / n, 0),
            f(d.generated as f64 / n, 0),
            f(d.transmitted as f64 / n, 0),
            f(wall.elapsed().as_secs_f64() * 1e3, 1),
            u(peak_rss_kb()),
            Cell::B(quiesced),
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
        report(name, arrs, run, wall);
    }
    if !args.flag("no-tbrr") {
        let wall = Instant::now();
        let spec = Arc::new(specs::tbrr_spec(&model, 2, false, &opts));
        let trrs = spec.all_trrs();
        let n_clusters = spec.clusters.len();
        let run = exp.converge(spec, &model);
        if !run.outcome.quiesced {
            println!(
                "# note: TBRR snapshot load did not quiesce; measuring from t={}s",
                run.outcome.end_time / 1_000_000
            );
        }
        report(format!("TBRR #C={n_clusters}"), trrs, run, wall);
    }
}
