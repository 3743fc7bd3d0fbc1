//! The weighted undirected intra-AS topology graph.

use bgp_types::RouterId;
use std::collections::BTreeMap;

/// An undirected weighted graph over routers.
///
/// Routers are identified by [`RouterId`]. Links carry a symmetric IGP
/// metric and are fixed once added: faults act on BGP sessions and
/// routers, never on the IGP.
#[derive(Clone, Debug, Default)]
pub struct Topology {
    /// Number of links added.
    links: usize,
    /// adjacency: router -> [(neighbor, link metric)], in link order
    adj: BTreeMap<RouterId, Vec<(RouterId, u32)>>,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Adds a router with no links (routers are also added implicitly
    /// by [`Topology::add_link`]).
    pub fn add_router(&mut self, r: RouterId) {
        self.adj.entry(r).or_default();
    }

    /// Adds an undirected link with the given metric.
    ///
    /// # Panics
    /// Panics on self-loops or non-positive metrics.
    pub fn add_link(&mut self, a: RouterId, b: RouterId, metric: u32) {
        assert_ne!(a, b, "self-loop");
        assert!(metric > 0, "IGP metrics must be positive");
        self.links += 1;
        self.adj.entry(a).or_default().push((b, metric));
        self.adj.entry(b).or_default().push((a, metric));
    }

    /// All routers, in id order.
    pub fn routers(&self) -> impl Iterator<Item = RouterId> + '_ {
        self.adj.keys().copied()
    }

    /// Number of routers.
    pub fn num_routers(&self) -> usize {
        self.adj.len()
    }

    /// Number of links.
    pub fn num_links(&self) -> usize {
        self.links
    }

    /// Neighbors of `r` with link metrics: `(neighbor, metric)`.
    pub fn neighbors(&self, r: RouterId) -> impl Iterator<Item = (RouterId, u32)> + '_ {
        self.adj.get(&r).into_iter().flatten().copied()
    }

    /// Whether `r` exists in the topology.
    pub fn contains(&self, r: RouterId) -> bool {
        self.adj.contains_key(&r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u32) -> RouterId {
        RouterId(i)
    }

    #[test]
    fn add_and_enumerate() {
        let mut t = Topology::new();
        t.add_link(r(1), r(2), 10);
        t.add_link(r(2), r(3), 5);
        t.add_router(r(9));
        assert_eq!(t.num_routers(), 4);
        assert_eq!(t.num_links(), 2);
        let n: Vec<_> = t.neighbors(r(2)).collect();
        assert_eq!(n, vec![(r(1), 10), (r(3), 5)]);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loop() {
        Topology::new().add_link(r(1), r(1), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_metric() {
        Topology::new().add_link(r(1), r(2), 0);
    }

    #[test]
    fn parallel_links_allowed() {
        let mut t = Topology::new();
        t.add_link(r(1), r(2), 10);
        t.add_link(r(1), r(2), 20);
        assert_eq!(t.neighbors(r(1)).count(), 2);
    }
}
