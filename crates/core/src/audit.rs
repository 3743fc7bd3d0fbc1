//! Auditors for the paper's §2.3 correctness claims, evaluated against
//! live simulator state:
//!
//! * **No forwarding loops** (§2.3.2): hot-potato walk of the data
//!   plane — at every hop the packet is re-routed by that router's own
//!   Loc-RIB selection and the IGP next hop towards its chosen exit.
//! * **No path inefficiencies** (§2.3.3): every router's chosen exit
//!   equals what it would have chosen under full-mesh iBGP, computed in
//!   closed form from the run's own eBGP routes (no second simulation).
//! * **Oscillation** is detected by the simulator itself (an event
//!   budget that a converging network never approaches), since a
//!   quiescent event queue implies a globally consistent stable state.

use crate::node::{BgpNode, Selected};
use crate::spec::NetworkSpec;
use analysis::full_mesh::{full_mesh, BorderRoute};
use bgp_types::{Ipv4Prefix, RouterId};
use netsim::Sim;
use std::collections::BTreeMap;

/// Result of tracing one packet through the data plane.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ForwardingOutcome {
    /// Reached a router whose selection exits the AS at itself.
    Delivered {
        /// The exit (border) router.
        exit: RouterId,
        /// Routers traversed, including source and exit.
        path: Vec<RouterId>,
    },
    /// The packet revisited a router: a forwarding loop.
    Loop(Vec<RouterId>),
    /// A router had no route (or no IGP path to its chosen exit).
    Blackhole {
        /// Where the packet died.
        at: RouterId,
    },
}

impl ForwardingOutcome {
    /// Whether this outcome is a loop.
    pub fn is_loop(&self) -> bool {
        matches!(self, ForwardingOutcome::Loop(_))
    }
}

/// Traces a packet for `prefix` injected at `start`, using hot-potato
/// forwarding: each BGP-speaking router on the path consults *its own*
/// BGP selection and hands the packet to its IGP next hop towards its
/// chosen exit. Routers that exist only in the IGP (no BGP node in the
/// sim) are label-switched transit — they carry the packet towards the
/// previous speaker's chosen exit without re-routing, matching the flat
/// tunneled core topologies the paper describes (§1).
pub fn forwarding_path(
    sim: &Sim<BgpNode>,
    spec: &NetworkSpec,
    start: RouterId,
    prefix: &Ipv4Prefix,
) -> ForwardingOutcome {
    let mut visited = vec![start];
    let mut cur = start;
    let mut target: Option<RouterId> = None;
    loop {
        if sim.contains_node(cur) {
            // A BGP speaker re-evaluates the route (hot potato).
            let Some(sel) = sim.node(cur).selected(prefix) else {
                return ForwardingOutcome::Blackhole { at: cur };
            };
            target = Some(sel.exit_router());
        }
        let Some(exit) = target else {
            // Injected at a non-speaker with no established target.
            return ForwardingOutcome::Blackhole { at: cur };
        };
        if exit == cur {
            return ForwardingOutcome::Delivered {
                exit,
                path: visited,
            };
        }
        let Some(next) = spec.oracle.next_hop(cur, exit) else {
            return ForwardingOutcome::Blackhole { at: cur };
        };
        if visited.contains(&next) {
            visited.push(next);
            return ForwardingOutcome::Loop(visited);
        }
        visited.push(next);
        cur = next;
    }
}

/// Traces `prefix` from every data-plane router; returns each router's
/// outcome.
pub fn audit_forwarding(
    sim: &Sim<BgpNode>,
    spec: &NetworkSpec,
    prefix: &Ipv4Prefix,
) -> BTreeMap<RouterId, ForwardingOutcome> {
    spec.routers
        .iter()
        .map(|r| (*r, forwarding_path(sim, spec, *r, prefix)))
        .collect()
}

/// Counts forwarding loops over a set of prefixes from all routers.
pub fn count_loops(sim: &Sim<BgpNode>, spec: &NetworkSpec, prefixes: &[Ipv4Prefix]) -> usize {
    prefixes
        .iter()
        .map(|p| {
            audit_forwarding(sim, spec, p)
                .values()
                .filter(|o| o.is_loop())
                .count()
        })
        .sum()
}

/// One exit disagreement between a scheme under test and full mesh.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExitMismatch {
    /// The disagreeing router.
    pub router: RouterId,
    /// The prefix.
    pub prefix: Ipv4Prefix,
    /// Exit chosen by the scheme under test.
    pub got: Option<RouterId>,
    /// Exit chosen under full-mesh.
    pub expected: Option<RouterId>,
}

/// Path-efficiency report: comparisons made and the mismatches found.
#[derive(Clone, Debug, Default)]
pub struct EfficiencyReport {
    /// (router, prefix) pairs compared.
    pub compared: usize,
    /// Disagreements with the oracle.
    pub mismatches: Vec<ExitMismatch>,
}

impl EfficiencyReport {
    /// Whether the scheme was exit-for-exit identical to full mesh.
    pub fn is_efficient(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Every live data-plane router's selection for `prefix` under full-mesh
/// iBGP, in closed form ([`analysis::full_mesh`]). The input is what the
/// finished run's live routers hold: each one's eBGP routes, read from
/// its border function in peer-address order, routers in id order. A
/// router that is down holds nothing, so under faults the oracle sees
/// only the exits that survived.
pub fn full_mesh_selections(
    sim: &Sim<BgpNode>,
    spec: &NetworkSpec,
    prefix: &Ipv4Prefix,
) -> Vec<(RouterId, Option<Selected>)> {
    let live = |r: &RouterId| sim.contains_node(*r) && sim.is_node_up(*r);
    let routes: Vec<BorderRoute<'_>> = sim
        .nodes()
        .filter(|(id, _)| live(id))
        .flat_map(|(border, node)| {
            let routes = node.border.exits(prefix).routes();
            routes.map(move |route| BorderRoute { border, route })
        })
        .collect();
    let routers = spec.routers.iter().copied().filter(live);
    let winners = full_mesh(&routes, routers, &spec.decision, |r, b| {
        spec.oracle.distance(r, b)
    });
    let seen_at = |(r, w): (RouterId, Option<BorderRoute<'_>>)| (r, w.map(|w| w.at(r).into()));
    winners.into_iter().map(seen_at).collect()
}

/// Compares every live data-plane router's chosen exit under `sim`
/// against [`full_mesh_selections`] over `prefixes` (paper §2.3.3:
/// "ABRR has no iBGP-induced path inefficiencies" because it emulates
/// full-mesh).
///
/// A router is *inefficient* for a prefix when it picked a different
/// exit than it would have under full-mesh **and** that exit is
/// IGP-farther from it (equal-cost exits are not inefficiencies —
/// decision steps 7–8 may legitimately tie-break differently when
/// candidate sets differ).
pub fn full_mesh_exits(
    sim: &Sim<BgpNode>,
    spec: &NetworkSpec,
    prefixes: &[Ipv4Prefix],
) -> EfficiencyReport {
    let mut report = EfficiencyReport::default();
    for prefix in prefixes {
        for (r, oracle) in full_mesh_selections(sim, spec, prefix) {
            report.compared += 1;
            let got = sim.node(r).selected(prefix).map(|s| s.exit_router());
            let expected = oracle.map(|s| s.exit_router());
            let equivalent = match (got, expected) {
                (Some(g), Some(e)) => {
                    g == e || spec.oracle.distance(r, g) == spec.oracle.distance(r, e)
                }
                (None, None) => true,
                _ => false,
            };
            if !equivalent {
                report.mismatches.push(ExitMismatch {
                    router: r,
                    prefix: *prefix,
                    got,
                    expected,
                });
            }
        }
    }
    report
}

/// One oscillation suspect: a prefix ranked by total best-route churn.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OscillationSuspect {
    /// The churning prefix.
    pub prefix: Ipv4Prefix,
    /// Total selection changes summed over all nodes.
    pub total_changes: u64,
    /// The node with the most changes for this prefix.
    pub hottest_node: RouterId,
}

/// Ranks prefixes by accumulated best-route churn across every node —
/// the practical way to find *which* prefixes a non-quiescing
/// (oscillating) run is fighting over. In a converged network the
/// counts are small (a handful of transient changes per prefix); an
/// oscillating prefix's count grows with simulation time.
pub fn oscillation_suspects(sim: &Sim<BgpNode>, top: usize) -> Vec<OscillationSuspect> {
    let mut per_prefix: BTreeMap<Ipv4Prefix, (u64, RouterId, u64)> = BTreeMap::new();
    for (id, node) in sim.nodes() {
        for (p, c) in node.all_selection_changes() {
            let e = per_prefix.entry(p).or_insert((0, id, 0));
            e.0 += c;
            if c > e.2 {
                e.1 = id;
                e.2 = c;
            }
        }
    }
    let mut v: Vec<OscillationSuspect> = per_prefix
        .into_iter()
        .map(
            |(prefix, (total_changes, hottest_node, _))| OscillationSuspect {
                prefix,
                total_changes,
                hottest_node,
            },
        )
        .collect();
    v.sort_by_key(|s| std::cmp::Reverse(s.total_changes));
    v.truncate(top);
    v
}

/// Checks that two sims agree on every listed router's selected route
/// attributes for every prefix (stronger than exit equality; used for
/// the full-mesh-equivalence property tests).
pub fn selections_equal(
    a: &Sim<BgpNode>,
    b: &Sim<BgpNode>,
    routers: &[RouterId],
    prefixes: &[Ipv4Prefix],
) -> bool {
    routers.iter().all(|r| {
        prefixes.iter().all(|p| {
            let sa = a
                .node(*r)
                .selected(p)
                .map(|s| (s.attrs.as_path(), s.exit_router()));
            let sb = b
                .node(*r)
                .selected(p)
                .map(|s| (s.attrs.as_path(), s.exit_router()));
            sa == sb
        })
    })
}
