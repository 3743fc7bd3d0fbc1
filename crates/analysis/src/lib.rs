//! Pen-and-paper RIB analysis from the paper's §3 and Appendix A.
//!
//! All expressions are implemented verbatim:
//!
//! * ABRR (A.1):
//!   `S^m_in = #BAL × #Prefixes / #APs`,
//!   `S^u_in = (#ARRs/#APs) × #Prefixes × (1 − 1/#APs)`,
//!   `S_out = S^m_in`.
//! * Single-path TBRR (A.2):
//!   `S^m_in = (#BAL/#Clusters) × #Prefixes`,
//!   `G = min(#BAL/#Clusters, 1) × #Prefixes`,
//!   `S^u_in = G × (#TRRs − 1)`,
//!   `S_out = 2G + (#Prefixes − G)`.
//! * Multi-path TBRR (A.3):
//!   `S^u_in = S^m_in × (#TRRs − 1)`,
//!   `S_out = 2 S^m_in + S^u_in`.
//!
//! `#BAL` (average best AS-level routes per prefix) comes from the
//! regression `F(#PASs)` fitted to the Figure 3 "All Sources" curve
//! (§3.1); [`BalRegression`] performs the least-squares fit and
//! [`BalRegression::PAPER`] ships a default calibrated to the paper's
//! reported operating point (10.2 best AS-level routes at 25 peer
//! ASes, approaching 1 with no peers).
//!
//! [`full_mesh`] is the other closed form: full-mesh iBGP's selections
//! for a prefix, computed from its eBGP routes and the IGP distances
//! alone — the reference that ABRR's selections are audited against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod full_mesh;

/// Input parameters of the Appendix A analysis.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Params {
    /// Total routable prefixes (paper figures use 400K).
    pub prefixes: f64,
    /// Number of APs (ABRR) or clusters (TBRR).
    pub partitions: f64,
    /// Total RRs: `#ARRs` or `#TRRs` (across all APs/clusters).
    pub rrs: f64,
    /// Average best AS-level routes per prefix (`#BAL`).
    pub bal: f64,
}

impl Params {
    /// The paper's default setting for Figures 4–5: 2000 routers,
    /// 50 APs/clusters × 2 RRs, 30 peer ASes, 400K prefixes —
    /// `#BAL = F(30)` under the given regression.
    pub fn paper_default(bal: f64) -> Params {
        Params {
            prefixes: 400_000.0,
            partitions: 50.0,
            rrs: 100.0,
            bal,
        }
    }

    /// RRs per partition (the redundancy factor).
    pub fn rrs_per_partition(&self) -> f64 {
        self.rrs / self.partitions
    }
}

/// RIB sizes for one scheme.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RibSizes {
    /// Adj-RIB-In entries from managed routes.
    pub rib_in_managed: f64,
    /// Adj-RIB-In entries from unmanaged routes.
    pub rib_in_unmanaged: f64,
    /// Adj-RIB-Out entries (per peer-group copies).
    pub rib_out: f64,
}

impl RibSizes {
    /// Total RIB-In.
    pub fn rib_in(&self) -> f64 {
        self.rib_in_managed + self.rib_in_unmanaged
    }
}

/// ABRR analysis (Appendix A.1).
pub fn abrr(p: &Params) -> RibSizes {
    let managed = p.bal * p.prefixes / p.partitions;
    let unmanaged = p.rrs_per_partition() * p.prefixes * (1.0 - 1.0 / p.partitions);
    RibSizes {
        rib_in_managed: managed,
        rib_in_unmanaged: unmanaged,
        rib_out: managed,
    }
}

/// The Appendix A.2 function `G(.)`: routes a TRR advertises to another
/// TRR.
pub fn g_fn(p: &Params) -> f64 {
    if p.bal < p.partitions {
        p.bal / p.partitions * p.prefixes
    } else {
        p.prefixes
    }
}

/// Single-path TBRR analysis (Appendix A.2).
pub fn tbrr(p: &Params) -> RibSizes {
    let managed = p.bal / p.partitions * p.prefixes;
    let g = g_fn(p);
    let unmanaged = g * (p.rrs - 1.0);
    RibSizes {
        rib_in_managed: managed,
        rib_in_unmanaged: unmanaged,
        rib_out: g * 2.0 + (p.prefixes - g),
    }
}

/// Multi-path TBRR analysis (Appendix A.3).
pub fn tbrr_multi(p: &Params) -> RibSizes {
    let managed = p.bal / p.partitions * p.prefixes;
    let unmanaged = managed * (p.rrs - 1.0);
    RibSizes {
        rib_in_managed: managed,
        rib_in_unmanaged: unmanaged,
        rib_out: 2.0 * managed + unmanaged,
    }
}

/// The fitted `F(#PASs)` regression: `bal = intercept + slope × x`
/// (§3.1 fits "a regression line to the 'All Sources' curve").
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BalRegression {
    /// Intercept (≈ #BAL with no peer ASes: customers + statics ≈ 1).
    pub intercept: f64,
    /// Slope per peer AS.
    pub slope: f64,
}

impl BalRegression {
    /// A default calibrated to the paper's reported operating point:
    /// F(0) ≈ 1 (customer/static routes only) and F(25) ≈ 10.2 (the
    /// measured Tier-1 average).
    pub const PAPER: BalRegression = BalRegression {
        intercept: 1.0,
        slope: (10.2 - 1.0) / 25.0,
    };

    /// Least-squares fit over `(x, y)` points.
    ///
    /// # Panics
    /// Panics when fewer than two distinct x values are given.
    pub fn fit(points: &[(f64, f64)]) -> BalRegression {
        assert!(points.len() >= 2, "regression needs >= 2 points");
        let n = points.len() as f64;
        let sx: f64 = points.iter().map(|(x, _)| x).sum();
        let sy: f64 = points.iter().map(|(_, y)| y).sum();
        let sxx: f64 = points.iter().map(|(x, _)| x * x).sum();
        let sxy: f64 = points.iter().map(|(x, y)| x * y).sum();
        let denom = n * sxx - sx * sx;
        assert!(denom.abs() > f64::EPSILON, "degenerate x values");
        let slope = (n * sxy - sx * sy) / denom;
        let intercept = (sy - slope * sx) / n;
        BalRegression { intercept, slope }
    }

    /// Evaluates `F(x)`, clamped below at 1 (at least one route per
    /// routable prefix).
    pub fn eval(&self, peer_ases: f64) -> f64 {
        (self.intercept + self.slope * peer_ases).max(1.0)
    }

    /// Coefficient of determination against the fitted points.
    pub fn r_squared(&self, points: &[(f64, f64)]) -> f64 {
        let mean = points.iter().map(|(_, y)| y).sum::<f64>() / points.len() as f64;
        let ss_tot: f64 = points.iter().map(|(_, y)| (y - mean).powi(2)).sum();
        let ss_res: f64 = points
            .iter()
            .map(|(x, y)| (y - (self.intercept + self.slope * x)).powi(2))
            .sum();
        if ss_tot == 0.0 {
            1.0
        } else {
            1.0 - ss_res / ss_tot
        }
    }
}

/// iBGP peering-session counts (§3.3): the one resource ABRR spends
/// freely. "In ABRR, every ARR has an iBGP session with every other
/// router in the AS. By contrast, in TBRR, every TRR has iBGP sessions
/// with only its clients and other TRRs." Clients: ABRR needs
/// #APs × redundancy sessions (20–30 at the recommended 10–15 APs);
/// TBRR clients need ~2.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SessionCounts {
    /// Sessions per ARR.
    pub per_arr: f64,
    /// Sessions per TRR.
    pub per_trr: f64,
    /// Sessions per ABRR client.
    pub per_abrr_client: f64,
    /// Sessions per TBRR client (single-cluster).
    pub per_tbrr_client: f64,
}

/// Computes §3.3 session counts for an AS with `routers` data-plane
/// routers, ABRR (`aps` partitions × `rrs_per` ARRs) vs TBRR
/// (`clusters` × `rrs_per` TRRs, clients spread evenly).
pub fn sessions(routers: f64, aps: f64, clusters: f64, rrs_per: f64) -> SessionCounts {
    let total_arrs = aps * rrs_per;
    let total_trrs = clusters * rrs_per;
    SessionCounts {
        // Every other router plus every other ARR.
        per_arr: routers + total_arrs - 1.0,
        // Own cluster's clients plus the TRR mesh.
        per_trr: routers / clusters + (total_trrs - 1.0),
        per_abrr_client: total_arrs,
        per_tbrr_client: rrs_per,
    }
}

/// One row of a Figure 4/5-style sweep.
#[derive(Clone, Copy, Debug)]
pub struct SweepRow {
    /// The swept parameter's value.
    pub x: f64,
    /// ABRR result.
    pub abrr: f64,
    /// Single-path TBRR result.
    pub tbrr: f64,
    /// Multi-path TBRR result.
    pub tbrr_multi: f64,
}

/// Which scalar a sweep extracts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Metric {
    /// Total RIB-In entries (Figure 4).
    RibIn,
    /// RIB-Out entries (Figure 5).
    RibOut,
}

/// Sweeps one parameter (mutated by `vary`) and evaluates all three
/// schemes — the generator behind Figures 4 and 5.
pub fn sweep(
    base: Params,
    xs: &[f64],
    metric: Metric,
    vary: impl Fn(&mut Params, f64),
) -> Vec<SweepRow> {
    xs.iter()
        .map(|&x| {
            let mut p = base;
            vary(&mut p, x);
            let get = |r: RibSizes| match metric {
                Metric::RibIn => r.rib_in(),
                Metric::RibOut => r.rib_out,
            };
            SweepRow {
                x,
                abrr: get(abrr(&p)),
                tbrr: get(tbrr(&p)),
                tbrr_multi: get(tbrr_multi(&p)),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> Params {
        Params::paper_default(BalRegression::PAPER.eval(30.0))
    }

    #[test]
    fn abrr_formulas_verbatim() {
        let p = Params {
            prefixes: 400_000.0,
            partitions: 50.0,
            rrs: 100.0,
            bal: 11.6,
        };
        let r = abrr(&p);
        assert!((r.rib_in_managed - 11.6 * 400_000.0 / 50.0).abs() < 1e-6);
        assert!((r.rib_in_unmanaged - 2.0 * 400_000.0 * (1.0 - 1.0 / 50.0)).abs() < 1e-6);
        assert_eq!(r.rib_out, r.rib_in_managed);
    }

    #[test]
    fn g_fn_caps_at_prefixes() {
        let mut p = Params {
            prefixes: 1000.0,
            partitions: 10.0,
            rrs: 20.0,
            bal: 5.0,
        };
        assert!((g_fn(&p) - 500.0).abs() < 1e-9); // BAL < clusters
        p.bal = 20.0;
        assert_eq!(g_fn(&p), 1000.0); // BAL >= clusters
    }

    #[test]
    fn tbrr_formulas_verbatim() {
        let p = Params {
            prefixes: 1000.0,
            partitions: 10.0,
            rrs: 20.0,
            bal: 5.0,
        };
        let r = tbrr(&p);
        assert!((r.rib_in_managed - 500.0).abs() < 1e-9);
        assert!((r.rib_in_unmanaged - 500.0 * 19.0).abs() < 1e-9);
        assert!((r.rib_out - (2.0 * 500.0 + 500.0)).abs() < 1e-9);
    }

    #[test]
    fn tbrr_multi_formulas_verbatim() {
        let p = Params {
            prefixes: 1000.0,
            partitions: 10.0,
            rrs: 20.0,
            bal: 5.0,
        };
        let r = tbrr_multi(&p);
        assert_eq!(r.rib_in_managed, 500.0);
        assert_eq!(r.rib_in_unmanaged, 500.0 * 19.0);
        assert_eq!(r.rib_out, 2.0 * 500.0 + 9500.0);
    }

    #[test]
    fn paper_takeaway_abrr_smaller_ribs() {
        // "for virtually all parameter settings, ABRR has substantially
        // smaller memory requirement than TBRR" (§3.2).
        let p = p();
        assert!(abrr(&p).rib_in() < tbrr(&p).rib_in());
        assert!(abrr(&p).rib_in() < tbrr_multi(&p).rib_in());
        assert!(abrr(&p).rib_out < tbrr(&p).rib_out);
        assert!(abrr(&p).rib_out < tbrr_multi(&p).rib_out);
    }

    #[test]
    fn rib_in_diminishing_returns_in_aps() {
        // Figure 4b: increasing #APs quickly stops helping RIB-In,
        // which becomes dominated by the unmanaged (DFZ) part.
        let mk = |aps: f64| {
            let mut q = p();
            q.partitions = aps;
            q.rrs = 2.0 * aps; // keep redundancy factor 2
            abrr(&q).rib_in()
        };
        let gain_early = mk(5.0) - mk(10.0);
        let gain_late = mk(50.0) - mk(100.0);
        assert!(gain_early > gain_late * 5.0);
    }

    #[test]
    fn rib_out_keeps_shrinking_with_aps() {
        // Figure 5b: RIB-Out "can be steadily reduced by increasing the
        // number of APs".
        let mk = |aps: f64| {
            let mut q = p();
            q.partitions = aps;
            q.rrs = 2.0 * aps;
            abrr(&q).rib_out
        };
        assert!(mk(100.0) < mk(50.0));
        assert!(
            (mk(50.0) / mk(100.0) - 2.0).abs() < 1e-9,
            "RIB-Out ~ 1/#APs"
        );
    }

    #[test]
    fn redundancy_factor_dominates_abrr_rib_in() {
        // Figure 4c: the #ARRs-per-AP "redundancy factor" is the main
        // RIB-In driver for ABRR.
        let mk = |red: f64| {
            let mut q = p();
            q.rrs = red * q.partitions;
            abrr(&q).rib_in()
        };
        let r2 = mk(2.0);
        let r4 = mk(4.0);
        assert!(r4 > 1.5 * r2);
    }

    #[test]
    fn regression_fit_recovers_line() {
        let pts: Vec<(f64, f64)> = (0..=25).map(|x| (x as f64, 1.0 + 0.4 * x as f64)).collect();
        let r = BalRegression::fit(&pts);
        assert!((r.intercept - 1.0).abs() < 1e-9);
        assert!((r.slope - 0.4).abs() < 1e-9);
        assert!(r.r_squared(&pts) > 0.999999);
    }

    #[test]
    fn paper_regression_hits_operating_point() {
        let f = BalRegression::PAPER;
        assert!((f.eval(25.0) - 10.2).abs() < 1e-9);
        assert!((f.eval(0.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn eval_clamped_at_one() {
        let f = BalRegression {
            intercept: 0.2,
            slope: 0.1,
        };
        assert_eq!(f.eval(0.0), 1.0);
    }

    #[test]
    fn sweep_produces_rows() {
        let rows = sweep(p(), &[10.0, 20.0, 50.0], Metric::RibOut, |q, x| {
            q.partitions = x;
            q.rrs = 2.0 * x;
        });
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.abrr > 0.0 && r.tbrr > 0.0));
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn fit_rejects_single_x() {
        BalRegression::fit(&[(1.0, 1.0), (1.0, 2.0)]);
    }

    #[test]
    fn session_counts_match_paper_proportions() {
        // The Tier-1 AS: >1000 routers, 27 clusters, 2 RRs each. Paper:
        // TRR max ~200, average ~100 sessions; an ARR would need >1000.
        let s = sessions(1000.0, 27.0, 27.0, 2.0);
        assert!(s.per_arr > 1000.0);
        assert!((s.per_trr - (1000.0 / 27.0 + 53.0)).abs() < 1e-9);
        assert!(s.per_trr < 120.0, "TRR sessions ~100 as the paper reports");
        // Clients: "no more than 20 to 30 iBGP peering sessions" at
        // 10-15 APs x 2 ARRs, "as compared to two for TBRR clients".
        let c = sessions(1000.0, 13.0, 27.0, 2.0);
        assert!((20.0..=30.0).contains(&c.per_abrr_client));
        assert_eq!(c.per_tbrr_client, 2.0);
    }
}
