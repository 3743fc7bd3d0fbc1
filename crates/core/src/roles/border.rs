//! Border role: eBGP ingestion and own-route stickiness.
//!
//! This role has no iBGP plane of its own — its inputs are the eBGP
//! events delivered by the shell — but it seeds every other role's
//! view: the exit candidates (eBGP routes) it contributes via
//! `BorderRole::reselect` are what the client, ARR, and TRR functions
//! redistribute. Its eBGP Adj-RIB-In is a private [`PrefixTable`]:
//! point lookups per event, range queries sorted by the table. Each
//! prefix's routes are one flat `Vec`, sorted by session address and
//! sized exactly. The sticky own-route prefix set is a
//! [`PrefixTable`] too, so every per-prefix table here is in the
//! `core.store.index_bytes` gauge.

use super::{AdvertiseEnv, Chassis, Role};
use bgp_rib::{Candidate, HeapBytes, PrefixIndex};
use bgp_types::{intern, Asn, Ipv4Prefix, NextHop, PathAttributes, PrefixTable, RouteSource};
use std::collections::BTreeSet;
use std::sync::Arc;

/// An eBGP-learned route held at a border router: 16 bytes.
#[derive(Clone, Debug)]
struct EbgpRoute {
    /// The eBGP session address it was learned on (unique per session).
    peer_addr: u32,
    peer_as: Asn,
    attrs: Arc<PathAttributes>,
}

/// The border function of a router (paper Table 1, "Client ↔ eBGP
/// Neighbor" rows): eBGP Adj-RIB-In and the sticky own-route set the
/// client role's §3.4 storage policy consults.
pub struct BorderRole {
    /// eBGP Adj-RIB-In: prefix → its routes. The outer table is a
    /// private hashed table holding each prefix's `Vec` header in its
    /// buckets — every `reselect` probes it, and only range queries,
    /// which it sorts, need order — not a column over the router's
    /// index: a border router learns a small share of the prefixes it
    /// routes over eBGP, and a dense 24-byte row for each of them would
    /// cost more than this small table (DESIGN.md §13). A prefix's
    /// routes, one per session, are sorted by session address, because
    /// peer order reaches the decision process's candidate list, and
    /// sized exactly, because a prefix holds one or two: a B-tree kept
    /// them in a 232-byte node (DESIGN.md §8).
    ebgp_in: PrefixTable<Vec<EbgpRoute>>,
    /// Distinct eBGP session addresses ever seen (sessions outlive the
    /// routes they advertise; used for export accounting).
    ebgp_sessions: BTreeSet<u32>,
    /// Prefixes this node has *ever* learned over eBGP (sticky). For
    /// these, the client role stores the full received path set
    /// instead of its reduced best: a reduced set could drop
    /// exactly the route that MED-eliminates one of our own routes,
    /// silently diverging from full-mesh semantics. Pure control-plane
    /// nodes never hit this and keep the paper's §3.4 one-best-per-RR
    /// storage, which is what the Appendix A client accounting counts.
    own_ever: PrefixTable<()>,
}

impl BorderRole {
    pub(crate) fn new() -> BorderRole {
        BorderRole {
            ebgp_in: PrefixTable::new(),
            ebgp_sessions: BTreeSet::new(),
            own_ever: PrefixTable::new(),
        }
    }

    /// Whether this router currently holds an eBGP route for `prefix` —
    /// i.e. whether it can act as the AS's exit.
    pub(crate) fn originates(&self, prefix: &Ipv4Prefix) -> bool {
        self.ebgp_in.get(prefix).is_some()
    }

    /// Whether `prefix` is in the sticky own-route set (see field docs).
    pub(crate) fn own_ever_contains(&self, prefix: &Ipv4Prefix) -> bool {
        self.own_ever.get(prefix).is_some()
    }

    /// eBGP Adj-RIB-In entries.
    pub(crate) fn ebgp_entries(&self) -> usize {
        self.ebgp_in.values().map(Vec::len).sum()
    }

    /// eBGP announce: next-hop-self, scrub iBGP-internal attributes that
    /// must not leak in from outside, and store. The caller always
    /// recomputes the prefix.
    pub(crate) fn ebgp_announce(
        &mut self,
        ch: &mut Chassis,
        prefix: Ipv4Prefix,
        peer_as: Asn,
        peer_addr: u32,
        attrs: Arc<PathAttributes>,
    ) {
        ch.counters.ebgp_events += 1;
        let mut a = (*attrs).clone();
        a.next_hop = NextHop(ch.id.0);
        a.originator_id = None;
        a.cluster_list.clear();
        a.ext_communities.retain(|c| !c.is_abrr_reflected());
        self.own_ever.insert(prefix, ());
        self.ebgp_sessions.insert(peer_addr);
        let routes = self.ebgp_in.get_or_insert_with(prefix, Vec::new);
        let route = EbgpRoute {
            peer_addr,
            peer_as,
            attrs: intern(a),
        };
        match routes.binary_search_by_key(&peer_addr, |r| r.peer_addr) {
            Ok(i) => routes[i] = route,
            Err(i) => {
                routes.reserve_exact(1);
                routes.insert(i, route);
            }
        }
    }

    /// eBGP withdraw. Returns whether a stored route was removed (the
    /// caller recomputes on change).
    pub(crate) fn ebgp_withdraw(
        &mut self,
        ch: &mut Chassis,
        prefix: Ipv4Prefix,
        peer_addr: u32,
    ) -> bool {
        ch.counters.ebgp_events += 1;
        let Some(routes) = self.ebgp_in.get_mut(&prefix) else {
            return false;
        };
        let Ok(i) = routes.binary_search_by_key(&peer_addr, |r| r.peer_addr) else {
            return false;
        };
        routes.remove(i);
        if routes.is_empty() {
            self.ebgp_in.remove(&prefix);
        } else {
            routes.shrink_to_fit();
        }
        true
    }

    /// Contributes the exit candidates for `prefix`: the eBGP routes in
    /// peer-address order.
    pub(crate) fn reselect(&self, prefix: &Ipv4Prefix, cands: &mut Vec<Candidate>) {
        for r in self.ebgp_in.get(prefix).into_iter().flatten() {
            cands.push(Candidate {
                attrs: r.attrs.clone(),
                source: RouteSource::Ebgp {
                    peer_as: r.peer_as,
                    peer_addr: r.peer_addr,
                },
                neighbor_id: r.peer_addr,
            });
        }
    }

    /// Counts the eBGP exports a changed selection causes.
    pub(crate) fn advertise(&self, ch: &mut Chassis, env: &AdvertiseEnv<'_>) {
        // Table 1, "Client → eBGP Neighbor: all best routes (not
        // returned to sender)". External peers are not simulated; count
        // the exports a border router would emit: one per eBGP session,
        // minus the session the best was learned from.
        if !env.sel_changed {
            return;
        }
        let n_sessions = self.ebgp_sessions.len() as u64;
        if n_sessions > 0 {
            let learned_here =
                matches!(env.sel.map(|s| s.source), Some(RouteSource::Ebgp { .. })) as u64;
            let exported = n_sessions.saturating_sub(learned_here);
            ch.counters.ebgp_exported += exported;
        }
    }

    /// Crash-restart: eBGP-learned state is runtime, and stickiness
    /// resets with it.
    pub(crate) fn on_restart(&mut self) {
        self.ebgp_in.clear();
        self.ebgp_sessions.clear();
        self.own_ever = PrefixTable::new();
    }
}

impl Role for BorderRole {
    fn rib_in_entries(&self) -> usize {
        self.ebgp_entries()
    }

    fn known_prefixes_in(
        &self,
        _index: &PrefixIndex,
        range_start: u32,
        range_end: u32,
    ) -> Vec<Ipv4Prefix> {
        self.ebgp_in
            .iter_overlapping(range_start, range_end)
            .map(|(p, _)| p)
            .collect()
    }

    fn slots(&self) -> usize {
        self.ebgp_in.len()
    }

    fn heap_bytes(&self) -> HeapBytes {
        // The table holds each prefix's `Vec` header inline; the routes
        // behind it are what the prefix owns. The sticky set owns
        // nothing beyond its buckets.
        let routes = self.ebgp_in.values().map(Vec::capacity).sum::<usize>();
        HeapBytes {
            index: self.ebgp_in.heap_bytes() + self.own_ever.heap_bytes(),
            paths: routes * size_of::<EbgpRoute>(),
            ..HeapBytes::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::NetworkSpec;
    use bgp_types::{AsPath, Med, RouterId};

    fn ebgp(peer_as: u32, med: u32) -> Arc<PathAttributes> {
        let path = AsPath::sequence([Asn(peer_as)]);
        Arc::new(PathAttributes::ebgp(path, NextHop(peer_as)).with_med(med))
    }

    /// One route per session, yielded in session-address order whatever
    /// order they arrived in, and the prefix gone with its last route.
    #[test]
    fn ebgp_routes_stay_sorted_by_session() {
        let view = igp::PopTopologyBuilder::new(1, 1).build();
        let spec = Arc::new(NetworkSpec::full_mesh(&view.topo, Asn(65000)));
        let mut ch = Chassis::new(RouterId(1), spec);
        let mut border = BorderRole::new();
        let p: Ipv4Prefix = "10.0.0.0/8".parse().unwrap();
        for addr in [30, 10, 20] {
            border.ebgp_announce(&mut ch, p, Asn(addr), addr, ebgp(addr, 0));
        }
        assert!(border.ebgp_withdraw(&mut ch, p, 10));
        // Session 20 re-announces with other attributes: a replacement.
        border.ebgp_announce(&mut ch, p, Asn(20), 20, ebgp(20, 5));
        let mut cands = Vec::new();
        border.reselect(&p, &mut cands);
        let sources: Vec<_> = cands.iter().map(|c| (c.neighbor_id, c.source)).collect();
        let ebgp_from = |addr: u32| RouteSource::Ebgp {
            peer_as: Asn(addr),
            peer_addr: addr,
        };
        assert_eq!(sources, [(20, ebgp_from(20)), (30, ebgp_from(30))]);
        assert_eq!(cands[0].attrs.med, Some(Med(5)));
        assert_eq!(border.ebgp_entries(), 2);
        assert_eq!(border.heap_bytes().paths, 2 * size_of::<EbgpRoute>());

        assert!(!border.ebgp_withdraw(&mut ch, p, 10), "no route from 10");
        assert!(border.originates(&p));
        assert!(border.ebgp_withdraw(&mut ch, p, 20));
        assert!(border.ebgp_withdraw(&mut ch, p, 30));
        assert!(!border.originates(&p));
        assert_eq!((border.slots(), border.heap_bytes().paths), (0, 0));
        // The sticky set outlives the routes, and its buckets are index
        // bytes beside the eBGP table's.
        assert!(border.own_ever_contains(&p));
        assert!(border.own_ever.heap_bytes() > 0);
        assert_eq!(
            border.heap_bytes().index,
            border.ebgp_in.heap_bytes() + border.own_ever.heap_bytes()
        );
    }

    /// The prefixes known in a range come out in prefix order, once
    /// each however many sessions announce them, and a restart clears
    /// them and their stickiness.
    #[test]
    fn known_prefixes_come_sorted_and_once() {
        let view = igp::PopTopologyBuilder::new(1, 1).build();
        let spec = Arc::new(NetworkSpec::full_mesh(&view.topo, Asn(65000)));
        let mut ch = Chassis::new(RouterId(1), spec);
        let mut border = BorderRole::new();
        let pfx = |s: &str| -> Ipv4Prefix { s.parse().unwrap() };
        let [a, b, c] = [pfx("10.0.0.0/8"), pfx("10.1.0.0/16"), pfx("192.168.0.0/16")];
        for (p, addr) in [(c, 7), (a, 7), (b, 7), (b, 9), (a, 9)] {
            border.ebgp_announce(&mut ch, p, Asn(addr), addr, ebgp(addr, 0));
        }
        let index = PrefixIndex::new();
        assert_eq!(border.known_prefixes_in(&index, 0, u32::MAX), [a, b, c]);
        let ten = (a.first_addr(), a.last_addr());
        assert_eq!(border.known_prefixes_in(&index, ten.0, ten.1), [a, b]);
        assert!(border.ebgp_withdraw(&mut ch, c, 7));
        assert!(border.own_ever_contains(&c), "sticky after the withdraw");
        border.on_restart();
        assert!(border.known_prefixes_in(&index, 0, u32::MAX).is_empty());
        assert!([a, b, c].iter().all(|p| !border.own_ever_contains(p)));
    }
}
