//! Dijkstra SPF with deterministic tie-breaking, and the all-pairs
//! oracle consumed by the BGP decision process.

use crate::graph::Topology;
use bgp_types::{FxHashMap, RouterId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The SPF tree rooted at one router: distances and first hops.
///
/// Lookups ([`SpfResult::distance`]) sit inside BGP decision step 6 —
/// the hottest query in the whole simulator — so the reach table is a
/// hash map; determinism comes from the Dijkstra tie-breaking, never
/// from map iteration order.
#[derive(Clone, Debug)]
pub struct SpfResult {
    root: RouterId,
    /// distance and the first hop on the (deterministically chosen)
    /// shortest path from `root`.
    reach: FxHashMap<RouterId, (u32, RouterId)>,
}

impl SpfResult {
    /// Runs Dijkstra from `root` over live links.
    ///
    /// Ties are broken deterministically: among equal-cost paths the one
    /// whose previous-hop router id is lowest wins, and the comparison
    /// cascades from the heap's `(dist, router, prev)` ordering. This
    /// keeps every simulation run bit-reproducible.
    pub fn run(topo: &Topology, root: RouterId) -> SpfResult {
        let mut reach: FxHashMap<RouterId, (u32, RouterId)> = FxHashMap::default();
        // first_hop[r] = the neighbor of root used to reach r.
        let mut heap: BinaryHeap<Reverse<(u32, RouterId, RouterId)>> = BinaryHeap::new();
        // (dist, node, first_hop). Root's "first hop" is itself.
        heap.push(Reverse((0, root, root)));
        while let Some(Reverse((d, node, first))) = heap.pop() {
            if reach.contains_key(&node) {
                continue;
            }
            reach.insert(node, (d, first));
            for (n, metric) in topo.neighbors(node) {
                if !reach.contains_key(&n) {
                    // The first hop to `n` is `n` itself when we're at
                    // the root, else inherited.
                    let fh = if node == root { n } else { first };
                    heap.push(Reverse((d + metric, n, fh)));
                }
            }
        }
        SpfResult { root, reach }
    }

    /// The root of this tree.
    pub fn root(&self) -> RouterId {
        self.root
    }

    /// IGP distance from the root to `dst` (0 for the root itself);
    /// `None` if unreachable.
    pub fn distance(&self, dst: RouterId) -> Option<u32> {
        self.reach.get(&dst).map(|(d, _)| *d)
    }

    /// The root's next hop towards `dst`; `None` if unreachable,
    /// `Some(root)` only for `dst == root`.
    pub fn next_hop(&self, dst: RouterId) -> Option<RouterId> {
        self.reach.get(&dst).map(|(_, f)| *f)
    }

    /// All reachable routers, in id order.
    pub fn reachable(&self) -> impl Iterator<Item = RouterId> + '_ {
        let mut v: Vec<RouterId> = self.reach.keys().copied().collect();
        v.sort();
        v.into_iter()
    }
}

/// All-pairs IGP state: one SPF tree per router, computed eagerly.
///
/// This is the "IGP metric" oracle handed to the BGP decision process
/// (step 6) and to the data-plane forwarding-loop checker, which walks
/// hop-by-hop next hops.
#[derive(Clone, Debug)]
pub struct IgpOracle {
    trees: FxHashMap<RouterId, SpfResult>,
}

impl IgpOracle {
    /// Computes SPF from every router.
    pub fn compute(topo: &Topology) -> IgpOracle {
        let trees = topo
            .routers()
            .map(|r| (r, SpfResult::run(topo, r)))
            .collect();
        IgpOracle { trees }
    }

    /// IGP distance from `src` to `dst`.
    pub fn distance(&self, src: RouterId, dst: RouterId) -> Option<u32> {
        self.trees.get(&src)?.distance(dst)
    }

    /// `src`'s next hop towards `dst`.
    pub fn next_hop(&self, src: RouterId, dst: RouterId) -> Option<RouterId> {
        if src == dst {
            return Some(dst);
        }
        self.trees.get(&src)?.next_hop(dst)
    }

    /// The SPF tree rooted at `src`.
    pub fn tree(&self, src: RouterId) -> Option<&SpfResult> {
        self.trees.get(&src)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u32) -> RouterId {
        RouterId(i)
    }

    /// A square with a diagonal:
    /// 1 -2- 2
    /// |     |
    /// 1     5     and 1-4 via 3: 1 -1- 3 -1- 4, 2 -5- 4
    fn square() -> Topology {
        let mut t = Topology::new();
        t.add_link(r(1), r(2), 2);
        t.add_link(r(1), r(3), 1);
        t.add_link(r(3), r(4), 1);
        t.add_link(r(2), r(4), 5);
        t
    }

    #[test]
    fn distances() {
        let spf = SpfResult::run(&square(), r(1));
        assert_eq!(spf.distance(r(1)), Some(0));
        assert_eq!(spf.distance(r(2)), Some(2));
        assert_eq!(spf.distance(r(3)), Some(1));
        assert_eq!(spf.distance(r(4)), Some(2));
    }

    #[test]
    fn next_hops_follow_shortest_path() {
        let spf = SpfResult::run(&square(), r(1));
        assert_eq!(spf.next_hop(r(4)), Some(r(3)));
        assert_eq!(spf.next_hop(r(2)), Some(r(2)));
        assert_eq!(spf.next_hop(r(1)), Some(r(1)));
    }

    #[test]
    fn unreachable_is_none() {
        let mut t = square();
        t.add_router(r(99));
        let spf = SpfResult::run(&t, r(1));
        assert_eq!(spf.distance(r(99)), None);
        assert_eq!(spf.next_hop(r(99)), None);
    }

    #[test]
    fn oracle_symmetric_distances() {
        let oracle = IgpOracle::compute(&square());
        for a in [1u32, 2, 3, 4] {
            for b in [1u32, 2, 3, 4] {
                assert_eq!(
                    oracle.distance(r(a), r(b)),
                    oracle.distance(r(b), r(a)),
                    "symmetric metric {a}<->{b}"
                );
            }
        }
    }

    #[test]
    fn igp_path_walk() {
        // Walking next hops from 1 to 4 passes 3; a router reaches
        // itself in no hop.
        let oracle = IgpOracle::compute(&square());
        assert_eq!(oracle.next_hop(r(1), r(4)), Some(r(3)));
        assert_eq!(oracle.next_hop(r(3), r(4)), Some(r(4)));
        assert_eq!(oracle.next_hop(r(1), r(1)), Some(r(1)));
    }

    #[test]
    fn failure_changes_paths() {
        let oracle = IgpOracle::compute(&square());
        assert_eq!(oracle.distance(r(1), r(4)), Some(2));
        // The square without 3-4: now 1->4 goes via 2 at cost 7.
        let mut t = Topology::new();
        t.add_link(r(1), r(2), 2);
        t.add_link(r(1), r(3), 1);
        t.add_link(r(2), r(4), 5);
        let oracle = IgpOracle::compute(&t);
        assert_eq!(oracle.distance(r(1), r(4)), Some(7));
        assert_eq!(oracle.next_hop(r(1), r(4)), Some(r(2)));
    }

    #[test]
    fn deterministic_tie_break() {
        // Two equal-cost paths from 1 to 4: via 2 and via 3.
        let mut t = Topology::new();
        t.add_link(r(1), r(2), 1);
        t.add_link(r(1), r(3), 1);
        t.add_link(r(2), r(4), 1);
        t.add_link(r(3), r(4), 1);
        let a = SpfResult::run(&t, r(1));
        let b = SpfResult::run(&t, r(1));
        assert_eq!(a.next_hop(r(4)), b.next_hop(r(4)));
        // Lowest (dist, router, prev) pops first: first hop via r2.
        assert_eq!(a.next_hop(r(4)), Some(r(2)));
    }
}
