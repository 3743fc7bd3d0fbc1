//! The §4.2 transmitted-updates comparison (27 clusters vs 27 APs in
//! the paper; PoP count configurable here):
//!
//! * each TRR transmits ~2.5× more updates than each ARR
//!   (310/s vs 125/s in the paper's absolute numbers);
//! * ABRR updates carry the whole best-AS-level set (~10 routes), so an
//!   ARR transmits ~4× more *bytes*;
//! * ABRR *clients* receive ~30% fewer updates than TBRR clients —
//!   the TBRR race-condition effect (after the paper's adjustment for
//!   dual-cluster clients, which this topology does not have).

use super::Def;
use crate::cli::{flag, MINUTES, MRAI_SECS, POPS, PREFIXES, RATE, RATES, RPP, SEED};
use crate::pipeline::{col, f, lcol, t, Experiment, Table};
use abrr::UpdateCounters;
use std::sync::Arc;
use workload::specs::{self, SpecOptions};
use workload::{ChurnConfig, Tier1Config, Tier1Model};

pub const DEF: Def = Def {
    name: "table_updates",
    about: "§4.2 — transmitted updates & bytes: TRR vs ARR; client received updates",
    flags: &[
        PREFIXES,
        SEED,
        MINUTES.or("10"),
        RATE.or("2.0"),
        POPS,
        RPP,
        MRAI_SECS.or("5"),
        flag("rr-skew-secs", "S", "RR processing-delay spread in seconds").or("3"),
    ],
    // The paper's §4.2 numbers come from the *full* iBGP topology
    // (>1000 clients across 27 clusters): the per-TRR client group is
    // small relative to the total client population an ARR serves, and
    // that proportion is what produces the 2.5x/4x trade-off. Keep the
    // client:cluster ratio comparable by default. #APs = #clusters =
    // PoPs.
    base: || Tier1Config {
        n_prefixes: 500,
        n_pops: 13,
        routers_per_pop: 24,
        ..Tier1Config::default()
    },
    artefacts: &[("table_updates.txt", "")],
    run,
};

fn run(exp: &Experiment) {
    let args = &exp.args;
    let cfg = args.tier1();
    let (n_pops, rpp) = (cfg.n_pops, cfg.routers_per_pop);
    let minutes: u64 = args.get_in("minutes", 1..=u64::MAX);
    let rate: f64 = args.get_in("rate", RATES);
    let mrai_secs: u64 = args.get("mrai-secs");
    let rr_skew_secs: u64 = args.get("rr-skew-secs");
    let churn_cfg = ChurnConfig {
        duration_us: minutes * 60_000_000,
        events_per_sec: rate,
        ..ChurnConfig::default()
    };
    exp.header(&format!(
        "seed={} prefixes={} pops={} routers/pop={} (paper: 27 clusters vs 27 APs, >1000 routers), churn {} min @ {} ev/s",
        cfg.seed, cfg.n_prefixes, n_pops, rpp, minutes, rate
    ));
    let model = Tier1Model::generate(cfg);
    let opts = SpecOptions {
        mrai_us: mrai_secs * 1_000_000,
        account_bytes: true,
        rr_proc_delay_spread_us: rr_skew_secs * 1_000_000,
        ..Default::default()
    };
    let secs = (minutes * 60) as f64;
    let clients = model.routers.clone();

    // Churn window over one scheme: per-RR and per-client deltas.
    let measure = |spec: Arc<abrr::NetworkSpec>,
                   rrs: &[bgp_types::RouterId],
                   name: &str,
                   require: bool|
     -> (UpdateCounters, UpdateCounters) {
        let mut run = exp.converge(spec, &model);
        if require {
            assert!(run.outcome.quiesced, "{name} must converge");
        } else if !run.outcome.quiesced {
            println!("# note: {name} snapshot load did not quiesce (persistent oscillation)");
        }
        let rr_w = run.window(rrs);
        let cl_w = run.window(&clients);
        if !run.churn(&model, &churn_cfg).quiesced {
            println!("# note: {name} churn phase sampled while still churning");
        }
        (rr_w.delta(&run), cl_w.delta(&run))
    };

    // ABRR with #APs = #PoPs, 2 ARRs each.
    let ab_spec = Arc::new(specs::abrr_spec(&model, n_pops, 2, &opts));
    let arrs = ab_spec.all_arrs();
    let (arr_d, ab_cl_d) = measure(ab_spec, &arrs, "ABRR", true);

    // TBRR with #clusters = #PoPs, 2 TRRs each.
    let tb_spec = Arc::new(specs::tbrr_spec(&model, 2, false, &opts));
    let trrs = tb_spec.all_trrs();
    let (trr_d, tb_cl_d) = measure(tb_spec, &trrs, "TBRR", false);

    let arr_tx_per_s = arr_d.transmitted as f64 / arrs.len() as f64 / secs;
    let trr_tx_per_s = trr_d.transmitted as f64 / trrs.len() as f64 / secs;
    let arr_bytes_per_s = arr_d.bytes_transmitted as f64 / arrs.len() as f64 / secs;
    let trr_bytes_per_s = trr_d.bytes_transmitted as f64 / trrs.len() as f64 / secs;
    let ab_cl_rx = ab_cl_d.received as f64 / clients.len() as f64;
    let tb_cl_rx = tb_cl_d.received as f64 / clients.len() as f64;

    let table = Table::new(vec![
        lcol("metric", 34),
        col("TBRR/TRR", 12),
        col("ABRR/ARR", 12),
    ]);
    table.header();
    table.row(&[
        t("updates transmitted per RR per s"),
        f(trr_tx_per_s, 1),
        f(arr_tx_per_s, 1),
    ]);
    table.row(&[
        t("bytes transmitted per RR per s"),
        f(trr_bytes_per_s, 0),
        f(arr_bytes_per_s, 0),
    ]);
    table.row(&[
        t("updates received per client"),
        f(tb_cl_rx, 0),
        f(ab_cl_rx, 0),
    ]);
    println!();
    println!(
        "TRR/ARR transmitted-update ratio : {:.2}x   [paper: ~2.5x]",
        trr_tx_per_s / arr_tx_per_s
    );
    println!(
        "ARR/TRR transmitted-bytes ratio  : {:.2}x   [paper: ~4x]",
        arr_bytes_per_s / trr_bytes_per_s
    );
    println!(
        "ABRR client received updates     : {:.1}% of TBRR's   [paper: ~70% (30% fewer)]",
        100.0 * ab_cl_rx / tb_cl_rx
    );
}
