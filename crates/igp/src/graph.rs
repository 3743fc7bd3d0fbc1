//! The weighted undirected intra-AS topology graph.

use bgp_types::RouterId;
use std::collections::BTreeMap;

/// Identifier of a link, assigned in insertion order.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct LinkId(pub u32);

#[derive(Clone, Debug)]
struct Link {
    a: RouterId,
    b: RouterId,
    metric: u32,
    up: bool,
}

/// An undirected weighted graph over routers.
///
/// Routers are identified by [`RouterId`]. Links carry a symmetric IGP
/// metric and can be failed and restored, which invalidates computed
/// SPF state (the caller re-runs SPF; see [`crate::spf`]).
#[derive(Clone, Debug, Default)]
pub struct Topology {
    links: Vec<Link>,
    /// adjacency: router -> [(neighbor, link id)]
    adj: BTreeMap<RouterId, Vec<(RouterId, LinkId)>>,
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
    pub fn add_link(&mut self, a: RouterId, b: RouterId, metric: u32) -> LinkId {
        assert_ne!(a, b, "self-loop");
        assert!(metric > 0, "IGP metrics must be positive");
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link {
            a,
            b,
            metric,
            up: true,
        });
        self.adj.entry(a).or_default().push((b, id));
        self.adj.entry(b).or_default().push((a, id));
        id
    }

    /// All routers, in id order.
    pub fn routers(&self) -> impl Iterator<Item = RouterId> + '_ {
        self.adj.keys().copied()
    }

    /// Number of routers.
    pub fn num_routers(&self) -> usize {
        self.adj.len()
    }

    /// Number of links (including failed ones).
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Live neighbors of `r` with link metrics: `(neighbor, metric)`.
    pub fn neighbors(&self, r: RouterId) -> impl Iterator<Item = (RouterId, u32)> + '_ {
        self.adj
            .get(&r)
            .into_iter()
            .flatten()
            .filter_map(move |(n, lid)| {
                let link = &self.links[lid.0 as usize];
                link.up.then_some((*n, link.metric))
            })
    }

    /// Fails a link (both directions).
    pub fn fail_link(&mut self, id: LinkId) {
        self.links[id.0 as usize].up = false;
    }

    /// Restores a failed link.
    pub fn restore_link(&mut self, id: LinkId) {
        self.links[id.0 as usize].up = true;
    }

    /// Whether the link is up.
    pub fn link_up(&self, id: LinkId) -> bool {
        self.links[id.0 as usize].up
    }

    /// The endpoints and metric of a link.
    pub fn link(&self, id: LinkId) -> (RouterId, RouterId, u32) {
        let l = &self.links[id.0 as usize];
        (l.a, l.b, l.metric)
    }

    /// Changes a link's metric (e.g. for traffic-engineering what-ifs).
    pub fn set_metric(&mut self, id: LinkId, metric: u32) {
        assert!(metric > 0, "IGP metrics must be positive");
        self.links[id.0 as usize].metric = metric;
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
    fn fail_and_restore() {
        let mut t = Topology::new();
        let l = t.add_link(r(1), r(2), 10);
        assert_eq!(t.neighbors(r(1)).count(), 1);
        t.fail_link(l);
        assert!(!t.link_up(l));
        assert_eq!(t.neighbors(r(1)).count(), 0);
        t.restore_link(l);
        assert_eq!(t.neighbors(r(1)).count(), 1);
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

    #[test]
    fn set_metric() {
        let mut t = Topology::new();
        let l = t.add_link(r(1), r(2), 10);
        t.set_metric(l, 3);
        assert_eq!(t.link(l), (r(1), r(2), 3));
    }
}
