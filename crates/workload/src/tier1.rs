//! The seeded Tier-1 ISP model: topology, peering layout, and
//! per-prefix route plans calibrated to the paper's statistics.

use bgp_rib::{best_as_level, Candidate, DecisionConfig};
use bgp_types::{AsPath, Asn, Ipv4Prefix, NextHop, PathAttributes, RouteSource, RouterId};
use igp::{PopTopologyBuilder, PopView};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Model parameters. Defaults reproduce the paper's published
/// statistics at a configurable prefix scale.
#[derive(Clone, Debug)]
pub struct Tier1Config {
    /// RNG seed; everything derives deterministically from it.
    pub seed: u64,
    /// Number of PoPs. The paper's experiments use the peering-router
    /// subtopology: 13 clusters.
    pub n_pops: usize,
    /// Peering routers per PoP (the paper has ~100 peering routers
    /// across 13 clusters).
    pub routers_per_pop: usize,
    /// Peer ASes (paper: 25).
    pub n_peer_ases: usize,
    /// Average peering points per peer AS (paper: ~8).
    pub peering_points_per_as: usize,
    /// Total prefixes (paper: 416K; scale down for simulation).
    pub n_prefixes: usize,
    /// Fraction of prefixes learned from peer ASes (paper: 0.76).
    pub pct_peer_prefixes: f64,
    /// Fraction of peer routes whose peering points carry *distinct*
    /// MEDs (these prefixes have a reduced best-AS-level set and drive
    /// MED dynamics). Calibrated so the average #BAL lands near the
    /// paper's 10.2.
    pub pct_med_diverse: f64,
}

impl Default for Tier1Config {
    fn default() -> Self {
        Tier1Config {
            seed: 20101220, // the paper's trace start date
            n_pops: 13,
            routers_per_pop: 8,
            n_peer_ases: 25,
            peering_points_per_as: 8,
            n_prefixes: 4_000,
            pct_peer_prefixes: 0.76,
            pct_med_diverse: 0.10,
        }
    }
}

/// Where a prefix's routes come from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrefixKind {
    /// Learned from one or more peer ASes.
    Peer,
    /// Learned from a customer AS (ingress LOCAL_PREF 110).
    Customer,
    /// Locally originated / static.
    Static,
}

/// One planned eBGP route: which border router receives it and with
/// what attributes.
#[derive(Clone, Debug)]
pub struct RoutePlan {
    /// The border router the route arrives at.
    pub router: RouterId,
    /// The advertising AS.
    pub peer_as: Asn,
    /// The eBGP session address (unique per session).
    pub peer_addr: u32,
    /// Full attributes (LOCAL_PREF models ingress policy).
    pub attrs: Arc<PathAttributes>,
}

/// The complete plan for one prefix.
#[derive(Clone, Debug)]
pub struct PrefixPlan {
    /// The prefix.
    pub prefix: Ipv4Prefix,
    /// Its provenance class.
    pub kind: PrefixKind,
    /// All its eBGP routes.
    pub routes: Vec<RoutePlan>,
}

impl PrefixPlan {
    /// Routes restricted to a subset of peer ASes (customer/static
    /// routes always included) — the sampling behind Figure 3.
    pub fn routes_with_peers(&self, peers: &[Asn]) -> Vec<&RoutePlan> {
        self.routes
            .iter()
            .filter(|r| match self.kind {
                PrefixKind::Peer => peers.contains(&r.peer_as),
                _ => true,
            })
            .collect()
    }
}

/// The generated model.
pub struct Tier1Model {
    /// Configuration it was built from.
    pub config: Tier1Config,
    /// PoP-structured topology over the peering routers.
    pub view: PopView,
    /// All peering routers (every router in this subtopology).
    pub routers: Vec<RouterId>,
    /// The peer ASes.
    pub peer_ases: Vec<Asn>,
    /// Per-prefix plans.
    pub prefixes: Vec<PrefixPlan>,
}

impl Tier1Model {
    /// Generates the model from `config` (deterministic in the seed).
    pub fn generate(config: Tier1Config) -> Tier1Model {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let view = PopTopologyBuilder::new(config.n_pops, config.routers_per_pop)
            .intra_metric(2)
            .inter_metric(120)
            .build();
        let routers = view.routers();
        let peer_ases: Vec<Asn> = (0..config.n_peer_ases)
            .map(|i| Asn(30_000 + i as u32))
            .collect();

        // Peering layout: each peer AS peers at `peering_points_per_as`
        // distinct routers, geographically spread (paper §A.2: AT&T
        // peering policy mandates geographic diversity), i.e. drawn
        // across PoPs round-robin.
        let mut peering_points: Vec<Vec<(RouterId, u32)>> = Vec::new();
        let mut next_session_addr = 0xC000_0000u32;
        for (ai, _) in peer_ases.iter().enumerate() {
            let mut points = Vec::new();
            let n = config.peering_points_per_as.min(routers.len());
            // Spread across PoPs: pick one router from n distinct PoPs,
            // starting at a per-AS offset.
            for k in 0..n {
                let pop = (ai + k * 3) % view.pops.len();
                let members = &view.pops[pop];
                let router = members[rng.gen_range(0..members.len())];
                points.push((router, next_session_addr));
                next_session_addr += 1;
            }
            peering_points.push(points);
        }

        // Prefix plans. Prefixes are spread across the full address
        // space so Address Partitions see realistic (uneven) densities:
        // denser in the low half, like real allocations.
        let mut prefixes = Vec::with_capacity(config.n_prefixes);
        for i in 0..config.n_prefixes {
            let skewed = {
                // Two draws, take min: density decreasing in address.
                let a = rng.gen::<u32>();
                let b = rng.gen::<u32>();
                a.min(b) & 0xFFFF_FF00
            };
            let prefix = Ipv4Prefix::new(skewed, 24);
            let kind = if rng.gen_bool(config.pct_peer_prefixes) {
                PrefixKind::Peer
            } else if rng.gen_bool(0.8) {
                PrefixKind::Customer
            } else {
                PrefixKind::Static
            };
            let mut routes = Vec::new();
            match kind {
                PrefixKind::Peer => {
                    // 1..=4 advertiser ASes, origin AS shared.
                    let n_adv = 1 + rng.gen_range(0..5usize).min(rng.gen_range(0..5usize));
                    let origin_as = Asn(50_000 + i as u32);
                    let mut advs: Vec<usize> = (0..peer_ases.len()).collect();
                    advs.shuffle(&mut rng);
                    advs.truncate(n_adv);
                    let med_diverse = rng.gen_bool(config.pct_med_diverse);
                    for &ai in &advs {
                        // Path length 2..=4, skewed short: real transit
                        // paths from a Tier-1 frequently tie at the
                        // minimum, which is what makes several peer
                        // ASes' routes survive step 2 simultaneously.
                        let extra = [0, 0, 1, 2][rng.gen_range(0..4usize)];
                        let mut asns = vec![peer_ases[ai]];
                        for e in 0..extra {
                            asns.push(Asn(40_000 + (ai * 10 + e) as u32));
                        }
                        asns.push(origin_as);
                        for (pi, (router, addr)) in peering_points[ai].iter().enumerate() {
                            let mut attrs = PathAttributes::ebgp(
                                AsPath::sequence(asns.clone()),
                                NextHop(addr & 0xFFFF),
                            );
                            attrs.local_pref = Some(bgp_types::LocalPref(100));
                            attrs.med = Some(bgp_types::Med(if med_diverse {
                                (pi as u32) * 10
                            } else {
                                0
                            }));
                            routes.push(RoutePlan {
                                router: *router,
                                peer_as: peer_ases[ai],
                                peer_addr: *addr,
                                attrs: Arc::new(attrs),
                            });
                        }
                    }
                }
                PrefixKind::Customer => {
                    let customer_as = Asn(60_000 + i as u32);
                    let n_homes = 1 + rng.gen_range(0..2usize);
                    for h in 0..n_homes {
                        let router = routers[rng.gen_range(0..routers.len())];
                        let mut attrs =
                            PathAttributes::ebgp(AsPath::sequence([customer_as]), NextHop(0));
                        attrs.local_pref = Some(bgp_types::LocalPref(110));
                        routes.push(RoutePlan {
                            router,
                            peer_as: customer_as,
                            peer_addr: 0xD000_0000 + (i * 4 + h) as u32,
                            attrs: Arc::new(attrs),
                        });
                    }
                }
                PrefixKind::Static => {
                    let router = routers[rng.gen_range(0..routers.len())];
                    routes.push(RoutePlan {
                        router,
                        peer_as: Asn(0),
                        peer_addr: 0,
                        attrs: Arc::new(PathAttributes::local(NextHop(router.0))),
                    });
                }
            }
            prefixes.push(PrefixPlan {
                prefix,
                kind,
                routes,
            });
        }
        // Duplicate prefixes can collide after masking; dedup by
        // keeping the first plan per prefix.
        prefixes.sort_by_key(|p| p.prefix);
        prefixes.dedup_by(|a, b| a.prefix == b.prefix);
        prefixes.shuffle(&mut rng);

        Tier1Model {
            config,
            view,
            routers,
            peer_ases,
            prefixes,
        }
    }

    /// All prefixes, sorted (for AP balancing).
    pub fn sorted_prefixes(&self) -> Vec<Ipv4Prefix> {
        let mut v: Vec<Ipv4Prefix> = self.prefixes.iter().map(|p| p.prefix).collect();
        v.sort();
        v
    }

    /// The best-AS-level route count for one prefix given a peer-AS
    /// subset (Figure 3's measured quantity). `peer_only` drops
    /// customer/static routes.
    pub fn bal_count(&self, plan: &PrefixPlan, peers: &[Asn], peer_only: bool) -> usize {
        let routes: Vec<&RoutePlan> = plan
            .routes_with_peers(peers)
            .into_iter()
            .filter(|_| !peer_only || plan.kind == PrefixKind::Peer)
            .collect();
        if routes.is_empty() {
            return 0;
        }
        let cands: Vec<Candidate> = routes
            .iter()
            .map(|r| Candidate {
                attrs: r.attrs.clone(),
                source: RouteSource::Ebgp {
                    peer_as: r.peer_as,
                    peer_addr: r.peer_addr,
                },
                neighbor_id: r.router.0,
            })
            .collect();
        best_as_level(&cands, &DecisionConfig::default()).len()
    }

    /// Figure 3: average #BAL per prefix as a function of the number of
    /// (randomly chosen) peer ASes. Returns `(x, peer_only, all_sources)`
    /// rows. Averages are over prefixes with at least one route under
    /// the sampled peer set.
    pub fn fig3_curve(&self, xs: &[usize], samples: usize) -> Vec<(usize, f64, f64)> {
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0xF163);
        let mut rows = Vec::new();
        for &x in xs {
            let x = x.min(self.peer_ases.len());
            let mut sum_peer = 0.0;
            let mut n_peer = 0usize;
            let mut sum_all = 0.0;
            let mut n_all = 0usize;
            for _ in 0..samples {
                let mut chosen = self.peer_ases.clone();
                chosen.shuffle(&mut rng);
                chosen.truncate(x);
                for plan in &self.prefixes {
                    let po = self.bal_count(plan, &chosen, true);
                    if po > 0 {
                        sum_peer += po as f64;
                        n_peer += 1;
                    }
                    let al = self.bal_count(plan, &chosen, false);
                    if al > 0 {
                        sum_all += al as f64;
                        n_all += 1;
                    }
                }
            }
            rows.push((
                x,
                if n_peer > 0 {
                    sum_peer / n_peer as f64
                } else {
                    0.0
                },
                if n_all > 0 {
                    sum_all / n_all as f64
                } else {
                    0.0
                },
            ));
        }
        rows
    }

    /// The best-AS-level count *as visible in iBGP*: each border router
    /// advertises only its local best route per prefix, so the ARRs'
    /// managed sets are computed over per-router bests, not over every
    /// planned eBGP route. At paper scale (hundreds of routers, ~8
    /// peering points per AS) the two coincide; at toy scale routes
    /// collide on routers and this is the right input for the Appendix
    /// A comparison.
    pub fn ibgp_visible_bal(&self, plan: &PrefixPlan) -> usize {
        use std::collections::BTreeMap;
        let mut per_router: BTreeMap<RouterId, Vec<&RoutePlan>> = BTreeMap::new();
        for r in &plan.routes {
            per_router.entry(r.router).or_default().push(r);
        }
        let cfg = DecisionConfig::default();
        let mut bests: Vec<Candidate> = Vec::new();
        for (router, routes) in per_router {
            let cands: Vec<Candidate> = routes
                .iter()
                .map(|r| Candidate {
                    attrs: r.attrs.clone(),
                    source: RouteSource::Ebgp {
                        peer_as: r.peer_as,
                        peer_addr: r.peer_addr,
                    },
                    neighbor_id: router.0,
                })
                .collect();
            let igp = |_nh: bgp_types::NextHop| Some(0u32);
            if let Some(i) = bgp_rib::best_path(&cands, &cfg, &igp) {
                bests.push(cands[i].clone());
            }
        }
        best_as_level(&bests, &cfg).len()
    }

    /// Average iBGP-visible #BAL over all prefixes (the Appendix A
    /// `#BAL` input for experimental comparisons).
    pub fn avg_visible_bal(&self) -> f64 {
        let total: usize = self.prefixes.iter().map(|p| self.ibgp_visible_bal(p)).sum();
        total as f64 / self.prefixes.len().max(1) as f64
    }

    /// Average #BAL with *all* peer ASes, over peer prefixes only — the
    /// paper's headline 10.2.
    pub fn avg_bal_all_peers(&self) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for plan in &self.prefixes {
            if plan.kind != PrefixKind::Peer {
                continue;
            }
            let c = self.bal_count(plan, &self.peer_ases, false);
            if c > 0 {
                sum += c as f64;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Tier1Model {
        Tier1Model::generate(Tier1Config {
            n_prefixes: 500,
            n_pops: 6,
            routers_per_pop: 4,
            ..Tier1Config::default()
        })
    }

    #[test]
    fn deterministic_in_seed() {
        let a = small();
        let b = small();
        assert_eq!(a.prefixes.len(), b.prefixes.len());
        for (x, y) in a.prefixes.iter().zip(&b.prefixes) {
            assert_eq!(x.prefix, y.prefix);
            assert_eq!(x.routes.len(), y.routes.len());
        }
    }

    #[test]
    fn prefix_mix_matches_config() {
        let m = small();
        let peer = m
            .prefixes
            .iter()
            .filter(|p| p.kind == PrefixKind::Peer)
            .count();
        let frac = peer as f64 / m.prefixes.len() as f64;
        assert!(
            (frac - 0.76).abs() < 0.08,
            "peer-prefix fraction {frac} should be near 0.76"
        );
    }

    #[test]
    fn peering_points_are_spread() {
        let m = small();
        // Each peer-AS route set for a MED-uniform prefix should hit
        // several distinct routers.
        let plan = m
            .prefixes
            .iter()
            .find(|p| p.kind == PrefixKind::Peer)
            .unwrap();
        let mut routers: Vec<RouterId> = plan.routes.iter().map(|r| r.router).collect();
        routers.sort();
        routers.dedup();
        assert!(routers.len() >= 2);
    }

    #[test]
    fn bal_calibration_near_paper() {
        // With the default 25 peers / 8 points, average #BAL for peer
        // prefixes should land in the neighbourhood of the paper's 10.2.
        let m = Tier1Model::generate(Tier1Config {
            n_prefixes: 2_000,
            ..Tier1Config::default()
        });
        let bal = m.avg_bal_all_peers();
        assert!(
            (6.0..=14.0).contains(&bal),
            "avg #BAL {bal} should be near the paper's 10.2"
        );
    }

    #[test]
    fn fig3_curves_monotone_increasing() {
        let m = small();
        let rows = m.fig3_curve(&[1, 5, 10, 25], 3);
        for w in rows.windows(2) {
            assert!(
                w[1].2 >= w[0].2 * 0.9,
                "all-sources curve should broadly increase: {rows:?}"
            );
        }
        // All-sources includes customer routes, so it is defined for
        // every x; at x=25 it reflects full diversity.
        assert!(rows.last().unwrap().2 > 1.0);
    }

    #[test]
    fn customer_routes_win_by_local_pref() {
        let m = small();
        // For a prefix with both customer and (hypothetical) peer
        // routes, BAL must contain only the customer routes.
        for plan in &m.prefixes {
            if plan.kind == PrefixKind::Customer && plan.routes.len() > 1 {
                let c = m.bal_count(plan, &m.peer_ases, false);
                assert!(c <= plan.routes.len());
                assert!(c >= 1);
            }
        }
    }

    #[test]
    fn static_prefixes_single_route() {
        let m = small();
        for plan in &m.prefixes {
            if plan.kind == PrefixKind::Static {
                assert_eq!(plan.routes.len(), 1);
                assert_eq!(m.bal_count(plan, &[], false), 1);
            }
        }
    }
}
