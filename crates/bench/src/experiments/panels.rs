//! Figures 4 and 5 (a–d): analytical # RIB-In (Fig. 4) and # RIB-Out
//! (Fig. 5) entries of an ARR/TRR under the Appendix A expressions,
//! sweeping (a) the number of routers*, (b) the number of
//! APs/clusters, (c) RRs per AP/cluster, and (d) peer ASes. Defaults
//! per the paper: 2000 routers, 50 APs/clusters, 2 RRs each, 30 peer
//! ASes, 400K prefixes. Figure 5 extends panel (b) to 400 and truncates
//! its TBRR curves at 100 clusters, as in the paper ("the number of
//! clusters is generally limited by the number of major PoPs").
//!
//! *The Appendix A RIB expressions do not depend on the router count
//! (RRs are assumed not to be border routers), so panel (a) is flat —
//! exactly as in the paper, where the (a) plots are horizontal lines
//! and "the plots for TBRR and TBRR-multi are identical".

use super::Def;
use crate::pipeline::{col, f, t, Experiment, Table};
use analysis::{BalRegression, Metric, SweepRow};
use workload::Tier1Config;

pub const FIG4: Def = Def {
    name: "fig4",
    about: "Figure 4 — # RIB-In entries of an ARR/TRR (analytical)",
    flags: &[],
    base: Tier1Config::default,
    artefacts: &[("fig4.txt", "")],
    run: |exp| sweep(exp, Metric::RibIn, None),
};

pub const FIG5: Def = Def {
    name: "fig5",
    about: "Figure 5 — # RIB-Out entries of an ARR/TRR (analytical)",
    flags: &[],
    base: Tier1Config::default,
    artefacts: &[("fig5.txt", "")],
    run: |exp| sweep(exp, Metric::RibOut, Some(100.0)),
};

/// The paper's four panels for `metric`, one table each. With
/// `truncate_tbrr_after`, panel (b) extends to 400 partitions and shows
/// no TBRR values past that many clusters.
fn sweep(exp: &Experiment, metric: Metric, truncate_tbrr_after: Option<f64>) {
    let reg = BalRegression::PAPER;
    exp.header(&format!(
        "defaults: 400K prefixes, 50 APs/clusters, 2 RRs each, 30 peer ASes, #BAL=F(30)={:.2}",
        reg.eval(30.0)
    ));
    let base = analysis::Params::paper_default(reg.eval(30.0));
    let mut partition_xs = vec![5.0, 10.0, 25.0, 50.0, 100.0, 200.0];
    let mut partitions_title = "(b) # APs / clusters".to_string();
    if let Some(c) = truncate_tbrr_after {
        partition_xs.push(400.0);
        partitions_title += &format!(" (TBRR truncated at {c} clusters)");
    }
    // (title, rows, TBRR columns shown up to this x).
    let panels: [(&str, Vec<SweepRow>, Option<f64>); 4] = [
        (
            "(a) # routers (RIB sizes are independent of it)",
            analysis::sweep(base, &[500.0, 1000.0, 2000.0, 4000.0], metric, |_, _| {}),
            None,
        ),
        (
            &partitions_title,
            analysis::sweep(base, &partition_xs, metric, |p, x| {
                p.partitions = x;
                p.rrs = 2.0 * x;
            }),
            truncate_tbrr_after,
        ),
        (
            "(c) # ARRs/TRRs per AP/cluster",
            analysis::sweep(base, &[1.0, 2.0, 3.0, 4.0, 6.0], metric, |p, x| {
                p.rrs = x * p.partitions;
            }),
            None,
        ),
        (
            "(d) # peer ASes",
            analysis::sweep(base, &[5.0, 10.0, 20.0, 30.0, 40.0], metric, |p, x| {
                p.bal = reg.eval(x);
            }),
            None,
        ),
    ];
    let table = Table::new(vec![
        col("x", 10),
        col("ABRR", 14),
        col("TBRR", 14),
        col("TBRR-multi", 14),
    ]);
    for (title, rows, truncate) in &panels {
        println!("\n## {title}");
        table.header_row();
        for r in rows {
            if truncate.is_some_and(|c| r.x > c) {
                table.row(&[f(r.x, 0), f(r.abrr, 0), t("-"), t("-")]);
            } else {
                table.row(&[f(r.x, 0), f(r.abrr, 0), f(r.tbrr, 0), f(r.tbrr_multi, 0)]);
            }
        }
    }
}
