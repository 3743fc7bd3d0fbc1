//! Figure 3: average number of best AS-level routes per prefix as a
//! function of the number of peer ASes, for "Peer ASes Only" and
//! "All Sources" — plus the regression F(#PASs) fitted to the
//! All-Sources curve (§3.1).

use super::Def;
use crate::cli::{flag, PREFIXES, SEED};
use crate::pipeline::{col, f, u, Experiment, Table};
use analysis::BalRegression;
use workload::{Tier1Config, Tier1Model};

pub const DEF: Def = Def {
    name: "fig3",
    about: "Figure 3 — best AS-level routes per prefix vs #peer ASes",
    flags: &[
        PREFIXES,
        SEED,
        flag("samples", "K", "peer-AS subsets sampled per x").or("5"),
    ],
    base: Tier1Config::default,
    artefacts: &[("fig3.txt", "--prefixes 3000 --samples 5")],
    run,
};

fn run(exp: &Experiment) {
    let cfg = exp.args.tier1();
    let samples: usize = exp.args.get_in("samples", 1..=usize::MAX);
    exp.header(&format!(
        "seed={} prefixes={} peer_ases={} points/AS={} samples={}",
        cfg.seed, cfg.n_prefixes, cfg.n_peer_ases, cfg.peering_points_per_as, samples
    ));
    let model = Tier1Model::generate(cfg.clone());
    let xs: Vec<usize> = (0..=cfg.n_peer_ases).step_by(2).collect();
    let rows = model.fig3_curve(&xs, samples);

    let table = Table::new(vec![
        col("#PeerASes", 10),
        col("PeerASesOnly", 16),
        col("AllSources", 14),
    ]);
    table.header_row();
    for (x, peer_only, all) in &rows {
        table.row(&[u(*x as u64), f(*peer_only, 2), f(*all, 2)]);
    }

    // Fit the regression to the All Sources curve, as §3.1 does.
    let points: Vec<(f64, f64)> = rows.iter().map(|(x, _, a)| (*x as f64, *a)).collect();
    let fit = BalRegression::fit(&points);
    println!();
    println!(
        "F(#PASs) = {:.3} + {:.3}x   (R^2 = {:.4})",
        fit.intercept,
        fit.slope,
        fit.r_squared(&points)
    );
    println!(
        "F(25) = {:.2}   [paper's measured Tier-1 average: 10.2]",
        fit.eval(25.0)
    );
    println!(
        "measured avg #BAL over peer prefixes with all peers: {:.2}",
        model.avg_bal_all_peers()
    );
}
