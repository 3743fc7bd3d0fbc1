//! Full-mesh iBGP in closed form: what every router selects for one
//! prefix when each router hears every other router's eBGP routes
//! directly (paper §2.2).
//!
//! Let S_p be the survivors of decision steps 1–4 (paper Table 2) over
//! every eBGP route any border holds for the prefix — the best AS-level
//! routes, the set an ARR advertises. Router r's winner is the full
//! decision process over S_p as r sees it: a route r holds itself is
//! eBGP-learned; a route held at another border b is iBGP-learned from b,
//! at r's IGP distance to b. Both steps are `bgp_rib`'s decision
//! functions, so Table 2 has one copy, and this module adds no
//! comparison of its own. DESIGN.md "Full mesh, defined once" says where
//! this coincides with a full-mesh simulation that advertises one route
//! per border.

use bgp_rib::{best_as_level_of, best_path_of, DecisionConfig, RouteRef};
use bgp_types::{NextHop, RouteSource, RouterId};

/// One eBGP route for a prefix, at the border router that holds it.
#[derive(Clone, Copy, Debug)]
pub struct BorderRoute<'a> {
    /// The border router: the route's exit from the AS.
    pub border: RouterId,
    /// The route as the border holds it: eBGP-learned, with the border
    /// itself as NEXT_HOP (next-hop-self).
    pub route: RouteRef<'a>,
}

impl<'a> BorderRoute<'a> {
    /// The route as `router` sees it under full mesh: as held when
    /// `router` is its border, else learned over iBGP from the border.
    pub fn at(&self, router: RouterId) -> RouteRef<'a> {
        if router == self.border {
            self.route
        } else {
            RouteRef::ibgp(self.border, self.route.attrs)
        }
    }
}

/// Every router's full-mesh winner for one prefix: `routes` are the
/// prefix's eBGP routes at their borders, `distance(r, b)` the IGP
/// distance from r to b (`None`: unreachable, and the route with it).
/// Returns, per router of `routers` in order, the winning route as its
/// border holds it; `None` when r reaches no border of S_p. A full tie
/// goes to the earlier route in `routes`.
pub fn full_mesh<'a>(
    routes: &[BorderRoute<'a>],
    routers: impl IntoIterator<Item = RouterId>,
    cfg: &DecisionConfig,
    distance: impl Fn(RouterId, RouterId) -> Option<u32>,
) -> Vec<(RouterId, Option<BorderRoute<'a>>)> {
    debug_assert!(
        routes
            .iter()
            .all(|b| b.route.attrs.next_hop == NextHop(b.border.0)
                && matches!(b.route.source, RouteSource::Ebgp { .. })),
        "a border holds its eBGP routes with itself as next hop"
    );
    let survivors: Vec<BorderRoute<'a>> = best_as_level_of(routes.iter().map(|b| b.route), cfg)
        .into_iter()
        .map(|i| routes[i])
        .collect();
    routers
        .into_iter()
        .map(|r| {
            // Next-hop-self: a route's NEXT_HOP names its border.
            let igp = |nh: NextHop| distance(r, RouterId(nh.0));
            let best = best_path_of(survivors.iter().map(|s| s.at(r)), cfg, &igp);
            (r, best.map(|i| survivors[i]))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_rib::MedMode;
    use bgp_types::{AsPath, Asn, Med, PathAttributes};
    use std::sync::Arc;

    fn attrs(border: u32, path: &[u32], med: u32) -> Arc<PathAttributes> {
        let path = AsPath::sequence(path.iter().map(|&a| Asn(a)));
        Arc::new(PathAttributes::ebgp(path, NextHop(border)).with_med(med))
    }

    fn at<'a>(border: u32, peer_addr: u32, attrs: &'a Arc<PathAttributes>) -> BorderRoute<'a> {
        let peer_as = attrs.as_path().first_as().unwrap();
        BorderRoute {
            border: RouterId(border),
            route: RouteRef {
                attrs,
                source: RouteSource::Ebgp { peer_as, peer_addr },
                neighbor_id: peer_addr,
            },
        }
    }

    /// Routers 1..=3 on a line, one apart.
    fn line(a: RouterId, b: RouterId) -> Option<u32> {
        Some(a.0.abs_diff(b.0))
    }

    fn exits(routes: &[BorderRoute<'_>], cfg: &DecisionConfig) -> Vec<Option<u32>> {
        let winners = full_mesh(routes, (1..=3).map(RouterId), cfg, line);
        winners.iter().map(|(_, w)| w.map(|w| w.border.0)).collect()
    }

    /// Hot potato over the best AS-level routes: each border exits
    /// itself, and the router between them takes the lower router id.
    #[test]
    fn each_router_takes_its_nearest_survivor() {
        let (a, b) = (attrs(1, &[100], 0), attrs(3, &[200], 0));
        let routes = [at(1, 9001, &a), at(3, 9003, &b)];
        let cfg = DecisionConfig::default();
        assert_eq!(exits(&routes, &cfg), [Some(1), Some(1), Some(3)]);
    }

    /// A route steps 1–4 drop is nobody's exit, not even its border's:
    /// the MED of AS 100's other route removes it.
    #[test]
    fn a_med_loser_is_no_exit_even_at_its_border() {
        let (lose, win) = (attrs(3, &[100], 5), attrs(1, &[100], 1));
        let routes = [at(1, 9001, &win), at(3, 9003, &lose)];
        let cfg = DecisionConfig::default();
        assert_eq!(exits(&routes, &cfg), [Some(1); 3]);
        // Within one AS's group only: an AS 200 route at router 3 keeps
        // its place and router 3 exits there.
        let other = attrs(3, &[200], 9);
        let routes = [at(1, 9001, &win), at(3, 9003, &lose), at(3, 9004, &other)];
        assert_eq!(exits(&routes, &cfg), [Some(1), Some(1), Some(3)]);
        let winners = full_mesh(&routes, [RouterId(3)], &cfg, line);
        assert_eq!(winners[0].1.unwrap().route.attrs.med, Some(Med(9)));
    }

    /// MEDs compare within one neighbour AS only (RFC 4271
    /// §9.1.2.2 (c)): AS 200's route keeps its place beside AS 100's
    /// lower-MED route, and router 3, its border, exits there. Compared
    /// across ASes (`always-compare-med`), the higher MED drops it and
    /// every router exits at router 1.
    #[test]
    fn med_is_compared_within_a_neighbour_as_only() {
        let (low, high) = (attrs(1, &[100], 1), attrs(3, &[200], 50));
        let routes = [at(1, 9001, &low), at(3, 9003, &high)];
        let per_as = DecisionConfig::default();
        assert_eq!(per_as.med, MedMode::SameNeighborAs);
        assert_eq!(exits(&routes, &per_as), [Some(1), Some(1), Some(3)]);
        let global = DecisionConfig {
            med: MedMode::AlwaysCompare,
            ..per_as
        };
        assert_eq!(exits(&routes, &global), [Some(1); 3]);
    }

    /// An unreachable border's routes leave the decision at routers
    /// that cannot reach it.
    #[test]
    fn an_unreachable_border_is_no_exit() {
        let a = attrs(3, &[100], 0);
        let routes = [at(3, 9003, &a)];
        let cut = |r: RouterId, b: RouterId| (r == b).then_some(0);
        let winners = full_mesh(
            &routes,
            (1..=3).map(RouterId),
            &DecisionConfig::default(),
            cut,
        );
        let got: Vec<_> = winners.iter().map(|(_, w)| w.map(|w| w.border)).collect();
        assert_eq!(got, [None, None, Some(RouterId(3))]);
    }
}
