//! Property tests: Dijkstra SPF against a Floyd–Warshall reference on
//! random graphs, plus structural next-hop invariants.

use bgp_types::RouterId;
use igp::{IgpOracle, Topology};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A random connected-ish topology: n routers, edges with small metrics.
fn arb_topology() -> impl Strategy<Value = Topology> {
    (2usize..10).prop_flat_map(|n| {
        // A spanning chain guarantees connectivity; extra random edges on top.
        let chain_metrics = prop::collection::vec(1u32..20, n - 1);
        let extras = prop::collection::vec(((0..n), (0..n), 1u32..20), 0..(n * 2));
        (chain_metrics, extras).prop_map(move |(chain, extras)| {
            let mut t = Topology::new();
            for i in 0..n {
                t.add_router(RouterId(i as u32 + 1));
            }
            for (i, m) in chain.iter().enumerate() {
                t.add_link(RouterId(i as u32 + 1), RouterId(i as u32 + 2), *m);
            }
            for (a, b, m) in extras {
                if a != b {
                    t.add_link(RouterId(a as u32 + 1), RouterId(b as u32 + 1), m);
                }
            }
            t
        })
    })
}

/// Floyd–Warshall all-pairs distances.
fn reference_distances(topo: &Topology) -> BTreeMap<(RouterId, RouterId), u64> {
    let routers: Vec<RouterId> = topo.routers().collect();
    let mut d: BTreeMap<(RouterId, RouterId), u64> = BTreeMap::new();
    const INF: u64 = u64::MAX / 4;
    for &a in &routers {
        for &b in &routers {
            d.insert((a, b), if a == b { 0 } else { INF });
        }
    }
    for a in &routers {
        for (b, m) in topo.neighbors(*a) {
            let e = d.get_mut(&(*a, b)).unwrap();
            *e = (*e).min(m as u64);
        }
    }
    for &k in &routers {
        for &i in &routers {
            for &j in &routers {
                let via = d[&(i, k)].saturating_add(d[&(k, j)]);
                if via < d[&(i, j)] {
                    d.insert((i, j), via);
                }
            }
        }
    }
    d
}

/// Walks IGP next hops from `src` to `dst`, returning the router
/// sequence including both endpoints; `None` if unreachable.
fn igp_path(
    oracle: &IgpOracle,
    n_routers: usize,
    src: RouterId,
    dst: RouterId,
) -> Option<Vec<RouterId>> {
    let mut path = vec![src];
    let mut cur = src;
    while cur != dst {
        cur = oracle.next_hop(cur, dst)?;
        path.push(cur);
        // An IGP path can't be longer than the router count; inconsistent
        // trees would loop.
        if path.len() > n_routers + 1 {
            return None;
        }
    }
    Some(path)
}

proptest! {
    /// Dijkstra distances equal Floyd–Warshall everywhere.
    #[test]
    fn spf_matches_floyd_warshall(topo in arb_topology()) {
        let oracle = IgpOracle::compute(&topo);
        let reference = reference_distances(&topo);
        let routers: Vec<RouterId> = topo.routers().collect();
        for &a in &routers {
            for &b in &routers {
                let expected = reference[&(a, b)];
                let got = oracle.distance(a, b).map(|x| x as u64);
                if expected >= u64::MAX / 4 {
                    prop_assert_eq!(got, None, "{:?}->{:?}", a, b);
                } else {
                    prop_assert_eq!(got, Some(expected), "{:?}->{:?}", a, b);
                }
            }
        }
    }

    /// Following next hops always reaches the destination along a path
    /// whose total cost equals the reported distance.
    #[test]
    fn next_hop_paths_realize_distances(topo in arb_topology()) {
        let oracle = IgpOracle::compute(&topo);
        let routers: Vec<RouterId> = topo.routers().collect();
        for &a in &routers {
            for &b in &routers {
                let Some(dist) = oracle.distance(a, b) else { continue };
                let path = igp_path(&oracle, routers.len(), a, b)
                    .expect("path exists when distance does");
                prop_assert_eq!(*path.first().unwrap(), a);
                prop_assert_eq!(*path.last().unwrap(), b);
                // Sum the cheapest link metric along consecutive hops.
                let mut total = 0u64;
                for w in path.windows(2) {
                    let m = topo
                        .neighbors(w[0])
                        .filter(|(n, _)| *n == w[1])
                        .map(|(_, m)| m)
                        .min()
                        .expect("consecutive hops are adjacent");
                    total += m as u64;
                }
                prop_assert_eq!(total, dist as u64, "{:?}->{:?} via {:?}", a, b, path);
            }
        }
    }
}
