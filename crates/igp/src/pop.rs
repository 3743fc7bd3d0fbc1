//! PoP-structured topology builder.
//!
//! ISPs commonly build topologies out of PoPs (Points of Presence) with
//! dense cheap links inside a PoP and expensive long-haul links between
//! PoPs, and "set IGP metrics so that intra-PoP distances are always
//! shorter than inter-PoP distances" (paper §1). The builder produces
//! such topologies deterministically and can deliberately break the
//! metric rule by inverting the two metrics.

use crate::graph::Topology;
use bgp_types::RouterId;

/// Builder for a PoP-structured topology.
///
/// Router ids are assigned densely from 1: PoP `p`'s routers are
/// `1 + p * routers_per_pop .. 1 + (p+1) * routers_per_pop`.
#[derive(Clone, Debug)]
pub struct PopTopologyBuilder {
    num_pops: usize,
    routers_per_pop: usize,
    intra_metric: u32,
    inter_metric: u32,
}

impl PopTopologyBuilder {
    /// Starts a builder with the paper-style defaults: intra-PoP metric
    /// 1, inter-PoP metric 100.
    pub fn new(num_pops: usize, routers_per_pop: usize) -> Self {
        assert!(num_pops > 0 && routers_per_pop > 0);
        PopTopologyBuilder {
            num_pops,
            routers_per_pop,
            intra_metric: 1,
            inter_metric: 100,
        }
    }

    /// Sets the intra-PoP link metric.
    pub fn intra_metric(mut self, m: u32) -> Self {
        self.intra_metric = m;
        self
    }

    /// Sets the inter-PoP link metric. Setting this *lower* than the
    /// intra-PoP metric violates the engineering rule the paper
    /// describes and is how oscillation gadgets are provoked.
    pub fn inter_metric(mut self, m: u32) -> Self {
        self.inter_metric = m;
        self
    }

    /// Builds the topology: each PoP is a full mesh internally; PoPs are
    /// connected in a ring through their first
    /// router ("gateway").
    pub fn build(self) -> PopView {
        let mut topo = Topology::new();
        let mut pops: Vec<Vec<RouterId>> = Vec::with_capacity(self.num_pops);
        for p in 0..self.num_pops {
            let start = 1 + (p * self.routers_per_pop) as u32;
            let members: Vec<RouterId> = (0..self.routers_per_pop as u32)
                .map(|i| RouterId(start + i))
                .collect();
            for (i, a) in members.iter().enumerate() {
                topo.add_router(*a);
                for b in &members[i + 1..] {
                    topo.add_link(*a, *b, self.intra_metric);
                }
            }
            pops.push(members);
        }
        if self.num_pops > 1 {
            for p in 0..self.num_pops {
                let q = (p + 1) % self.num_pops;
                if self.num_pops == 2 && p == 1 {
                    break; // avoid a duplicate link in the 2-PoP case
                }
                topo.add_link(pops[p][0], pops[q][0], self.inter_metric);
            }
        }
        PopView { topo, pops }
    }
}

/// A built PoP topology plus its PoP membership map.
#[derive(Clone, Debug)]
pub struct PopView {
    /// The underlying graph.
    pub topo: Topology,
    /// PoP membership: `pops[i]` lists PoP `i`'s routers.
    pub pops: Vec<Vec<RouterId>>,
}

impl PopView {
    /// The PoP index of a router, if it belongs to one.
    pub fn pop_of(&self, r: RouterId) -> Option<usize> {
        self.pops.iter().position(|members| members.contains(&r))
    }

    /// All routers in id order.
    pub fn routers(&self) -> Vec<RouterId> {
        let mut v: Vec<RouterId> = self.pops.iter().flatten().copied().collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spf::IgpOracle;

    #[test]
    fn builds_expected_counts() {
        let v = PopTopologyBuilder::new(4, 3).build();
        assert_eq!(v.topo.num_routers(), 12);
        // per PoP: C(3,2)=3 links, 4 PoPs = 12; ring: 4 links.
        assert_eq!(v.topo.num_links(), 16);
        assert_eq!(v.pops.len(), 4);
    }

    #[test]
    fn two_pops_single_interlink() {
        let v = PopTopologyBuilder::new(2, 2).build();
        // 1 intra link per PoP + 1 inter link.
        assert_eq!(v.topo.num_links(), 3);
    }

    #[test]
    fn intra_closer_than_inter() {
        let v = PopTopologyBuilder::new(3, 3).build();
        let oracle = IgpOracle::compute(&v.topo);
        let same_pop = v.pops[0].clone();
        let d_intra = oracle.distance(same_pop[0], same_pop[1]).unwrap();
        let d_inter = oracle.distance(v.pops[0][0], v.pops[1][0]).unwrap();
        assert!(d_intra < d_inter);
    }

    #[test]
    fn inverted_metrics_violate_rule() {
        let v = PopTopologyBuilder::new(3, 3)
            .intra_metric(100)
            .inter_metric(1)
            .build();
        let oracle = IgpOracle::compute(&v.topo);
        let d_intra = oracle.distance(v.pops[0][0], v.pops[0][1]).unwrap();
        let d_inter = oracle.distance(v.pops[0][0], v.pops[1][0]).unwrap();
        assert!(d_inter < d_intra, "gadget topologies invert the rule");
    }

    #[test]
    fn pop_of_lookup() {
        let v = PopTopologyBuilder::new(2, 2).build();
        assert_eq!(v.pop_of(RouterId(1)), Some(0));
        assert_eq!(v.pop_of(RouterId(4)), Some(1));
        assert_eq!(v.pop_of(RouterId(99)), None);
        assert_eq!(v.routers().len(), 4);
    }

    #[test]
    fn whole_topology_connected() {
        let v = PopTopologyBuilder::new(5, 4).build();
        let oracle = IgpOracle::compute(&v.topo);
        let routers = v.routers();
        for r in &routers {
            assert!(oracle.distance(routers[0], *r).is_some());
        }
    }
}
