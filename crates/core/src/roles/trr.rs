//! TRR role (paper Table 1 left column; RFC 4456): topology-based
//! route reflection with cluster-list/originator-id loop prevention, in
//! single-path and multi-path (Appendix A.3) variants.

use super::reflection::Reflection;
use super::{ibgp_routes, originated_by, route_at, without, AdvertiseEnv, Chassis, Role, Rx};
use crate::msg::{Plane, SessionMsg};
use crate::node::group;
use crate::spec::{Mode, NetworkSpec};
use bgp_rib::{
    best_as_level_of, best_path_of, HeapBytes, PathSet, PrefixId, PrefixIndex, RibInColumn,
    RouteRef,
};
use bgp_types::{Ipv4Prefix, OriginatorId, RouteSource, RouterId};
use netsim::Ctx;
use std::sync::Arc;

/// The TRR function of a router: the TBRR-plane reflection table for
/// the clusters it serves.
pub struct TrrRole {
    /// TRR-role Adj-RIB-In.
    trr_in: RibInColumn,
    /// Cluster ids this node reflects.
    trr_clusters: Vec<u32>,
}

impl TrrRole {
    pub(crate) fn new(id: RouterId, spec: &NetworkSpec) -> TrrRole {
        TrrRole {
            trr_in: RibInColumn::new(),
            trr_clusters: spec.trr_clusters_of(id),
        }
    }

    /// Materializes the TRR→clients and TRR→TRR-peers groups.
    pub(crate) fn install_groups(&self, ch: &mut Chassis) {
        if ch.spec.mode == Mode::FullMesh
            || !ch.spec.mode.has_tbrr()
            || self.trr_clusters.is_empty()
        {
            return;
        }
        ch.out
            .define_group(group::TRR_TO_CLIENTS, ch.spec.clients_of_trr(ch.id));
        let peers: Vec<RouterId> = ch
            .spec
            .all_trrs()
            .into_iter()
            .filter(|t| *t != ch.id)
            .collect();
        ch.out.define_group(group::TRR_TO_PEERS, peers);
    }

    /// The clusters this router reflects (shell classification).
    pub(crate) fn clusters(&self) -> &[u32] {
        &self.trr_clusters
    }

    /// The TRR's reflection of a route (RFC 4456): LOCAL_PREF defaulted,
    /// ORIGINATOR_ID the injecting router, our cluster ids prepended.
    fn reflection<'a>(&'a self, r: RouteRef<'a>) -> Reflection<'a> {
        Reflection {
            base: r.attrs,
            local_pref: Some(r.attrs.effective_local_pref()),
            originator: r.attrs.originator_id.unwrap_or(OriginatorId(r.neighbor_id)),
            clusters: &self.trr_clusters,
            marker: None,
        }
    }

    /// TRR advertisement per Table 1 (single-path) or Appendix A.3
    /// (multi-path). `routes` is the TBRR-plane candidate set.
    fn reflect<'a>(
        &self,
        ch: &mut Chassis,
        ctx: &mut Ctx<SessionMsg>,
        prefix: Ipv4Prefix,
        routes: impl Iterator<Item = RouteRef<'a>> + Clone,
    ) {
        let my_clients = ch.out.members_shared(group::TRR_TO_CLIENTS);
        let from_client_side = |r: &RouteRef| match r.source {
            RouteSource::Ibgp { peer } => my_clients.contains(&peer),
            RouteSource::Ebgp { .. } => true,
        };
        if ch.spec.mode.tbrr_multipath() {
            // Multi-path TBRR (Appendix A.3): all best AS-level routes
            // go to clients; the client-side best AS-level routes go to
            // other TRRs.
            let surv = best_as_level_of(routes.clone(), &ch.spec.decision);
            let clients_out = ch.out.paths(group::TRR_TO_CLIENTS, &prefix);
            let to_clients: PathSet = surv
                .iter()
                .map(|&i| {
                    self.reflection(route_at(&routes, i))
                        .interned(&[clients_out])
                })
                .collect();
            let client_side = routes.filter(|r| from_client_side(r));
            let surv_cs = best_as_level_of(client_side.clone(), &ch.spec.decision);
            let peers_out = ch.out.paths(group::TRR_TO_PEERS, &prefix);
            let to_peers: PathSet = surv_cs
                .iter()
                .map(|&i| {
                    self.reflection(route_at(&client_side, i))
                        .interned(&[&to_clients, peers_out])
                })
                .collect();
            ch.advertise_group(
                ctx,
                group::TRR_TO_CLIENTS,
                prefix,
                Plane::Tbrr,
                Arc::new(to_clients),
                |_| false,
            );
            ch.advertise_group(
                ctx,
                group::TRR_TO_PEERS,
                prefix,
                Plane::Tbrr,
                Arc::new(to_peers),
                |_| false,
            );
        } else {
            // Single-path TBRR: reflect the single best route. If it was
            // learned from a client (or eBGP/local), it goes to both
            // clients and TRRs; if from a non-client, to clients only.
            let igp = ch.igp_metric_fn();
            let best = best_path_of(routes.clone(), &ch.spec.decision, &igp);
            drop(igp);
            let (to_clients, to_peers, sender) = match best {
                Some(i) => {
                    let r = route_at(&routes, i);
                    let clients_out = ch.out.paths(group::TRR_TO_CLIENTS, &prefix);
                    let entry = Arc::new(vec![self.reflection(r).interned(&[clients_out])]);
                    let sender = match r.source {
                        RouteSource::Ibgp { peer } => Some(peer),
                        _ => None,
                    };
                    if from_client_side(&r) {
                        (entry.clone(), entry, sender)
                    } else {
                        (entry, ch.no_paths.clone(), sender)
                    }
                }
                None => (ch.no_paths.clone(), ch.no_paths.clone(), None),
            };
            // "not returned to sender": skip the client we learned the
            // best route from (originator filtering inside
            // advertise_group() covers the common case; `sender` covers
            // multi-hop reflection where originator != sender).
            ch.advertise_group(
                ctx,
                group::TRR_TO_CLIENTS,
                prefix,
                Plane::Tbrr,
                to_clients,
                |m| Some(m) == sender,
            );
            ch.advertise_group(
                ctx,
                group::TRR_TO_PEERS,
                prefix,
                Plane::Tbrr,
                to_peers,
                |m| Some(m) == sender,
            );
        }
    }

    /// TRR-role input, with RFC 4456 loop prevention: drop routes whose
    /// CLUSTER_LIST carries one of our cluster ids or whose
    /// ORIGINATOR_ID is us.
    pub(crate) fn absorb(&mut self, ch: &mut Chassis, rx: Rx) -> bool {
        let Rx {
            from, id, paths, ..
        } = rx;
        let kept = without(&paths, |a| {
            let cluster_loop = a
                .cluster_list()
                .iter()
                .any(|c| self.trr_clusters.contains(&c.0));
            cluster_loop || originated_by(a, ch.id)
        });
        ch.counters.loop_prevented += (paths.len() - kept.len()) as u64;
        self.trr_in.set_paths(from, id, kept)
    }

    /// The routes the TRR function contributes to `prefix`'s decision:
    /// a TRR's forwarding view includes its TRR-role table.
    pub(crate) fn routes<'a>(
        &'a self,
        ch: &Chassis,
        prefix: &Ipv4Prefix,
        id: PrefixId,
    ) -> impl Iterator<Item = RouteRef<'a>> + Clone + 'a {
        let on = !self.trr_clusters.is_empty() && !ch.use_abrr_for(prefix);
        ibgp_routes(if on { self.trr_in.row(id) } else { &[] })
    }

    /// TRR-function advertisement from the TBRR plane: rebuild the
    /// plane's candidate set (exit candidates + TRR table — for a pure
    /// TRR this *is* the set the router just selected from, since its
    /// client-role tables are provably empty) and reflect from it.
    pub(crate) fn advertise(
        &mut self,
        ch: &mut Chassis,
        ctx: &mut Ctx<SessionMsg>,
        prefix: Ipv4Prefix,
        env: &mut AdvertiseEnv<'_>,
    ) {
        let routes = env
            .exits
            .routes()
            .chain(ibgp_routes(self.trr_in.row(env.id)));
        self.reflect(ch, ctx, prefix, routes);
    }

    /// Drops everything learned from `peer` (RFC 4271 §6 teardown).
    /// Returns the affected prefixes, each with its id in `index`.
    pub(crate) fn drop_peer(
        &mut self,
        index: &PrefixIndex,
        peer: RouterId,
    ) -> Vec<(Ipv4Prefix, PrefixId)> {
        self.trr_in.drop_peer(index, peer)
    }

    /// Crash-restart with RIB loss: the Adj-RIB-In goes.
    pub(crate) fn on_restart(&mut self) {
        self.trr_in = RibInColumn::new();
    }
}

impl Role for TrrRole {
    fn rib_in_entries(&self) -> usize {
        self.trr_in.num_entries()
    }

    fn known_prefixes_in(
        &self,
        index: &PrefixIndex,
        range_start: u32,
        range_end: u32,
    ) -> Vec<Ipv4Prefix> {
        let known = self.trr_in.known_prefixes_in(index, range_start, range_end);
        known.map(|(p, _)| p).collect()
    }

    fn slots(&self) -> usize {
        self.trr_in.slots()
    }

    fn heap_bytes(&self) -> HeapBytes {
        self.trr_in.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roles::strategies::{arb_attrs, boundary_moved};
    use bgp_types::{intern, ClusterId, LocalPref, PathAttributes, PathId};
    use proptest::prelude::*;

    /// A TRR's reflection as RFC 4456 defines it, written apart from
    /// [`TrrRole::reflection`]: LOCAL_PREF defaulted, ORIGINATOR_ID the
    /// injecting neighbor unless already set, `clusters` prepended.
    fn reference(input: &PathAttributes, neighbor: u32, clusters: &[u32]) -> PathAttributes {
        let mut cluster_list: Vec<ClusterId> = clusters.iter().map(|&c| ClusterId(c)).collect();
        cluster_list.extend(input.cluster_list());
        let mut out = input.with_lists(
            input.as_path(),
            input.communities(),
            input.ext_communities(),
            cluster_list,
        );
        out.local_pref = Some(input.local_pref.unwrap_or(LocalPref::DEFAULT));
        out.originator_id = Some(input.originator_id.unwrap_or(OriginatorId(neighbor)));
        out
    }

    /// The stored sets a lookup may meet for `input`: its own reflection,
    /// the near misses (one cluster id off, another originator, LOCAL_PREF
    /// explicit where it was defaulted and back, the fresh reflection's
    /// words with a list boundary moved), another route's reflection,
    /// another TRR's, and a set no TRR built.
    fn candidates(
        input: &PathAttributes,
        neighbor: u32,
        clusters: &[u32],
        other: &PathAttributes,
        other_clusters: &[u32],
        pick: usize,
    ) -> Vec<PathAttributes> {
        let fresh = reference(input, neighbor, clusters);
        let mut cluster_off = clusters.to_vec();
        cluster_off[pick % clusters.len()] += 1;
        let mut originator_off = fresh.clone();
        originator_off.originator_id = fresh.originator_id.map(|o| OriginatorId(o.0 + 1));
        let mut lp_flipped = input.clone();
        lp_flipped.local_pref = match input.local_pref {
            None => Some(LocalPref::DEFAULT),
            Some(_) => None,
        };
        let moved = boundary_moved(&fresh);
        let mut out = vec![
            fresh,
            reference(input, neighbor, &cluster_off),
            originator_off,
            reference(&lp_flipped, neighbor, clusters),
            reference(other, neighbor, clusters),
            reference(input, neighbor, other_clusters),
            other.clone(),
        ];
        out.extend(moved);
        out
    }

    proptest! {
        /// The description accepts a stored set exactly when it equals
        /// the reference reflection; and whatever `interned` returns is
        /// the stored `Arc` exactly then, else the interner's `Arc` for
        /// the reference.
        #[test]
        fn reuse_accepts_exactly_the_fresh_reflection(
            input in arb_attrs(),
            other in arb_attrs(),
            neighbor in 1u32..4,
            clusters in prop::collection::vec(1u32..4, 1..3),
            other_clusters in prop::collection::vec(1u32..4, 1..3),
            pick in 0usize..2,
        ) {
            let fresh = reference(&input, neighbor, &clusters);
            let originator = input.originator_id.unwrap_or(OriginatorId(neighbor));
            let id = PathId(originator.0);
            let role = TrrRole {
                trr_in: RibInColumn::new(),
                trr_clusters: clusters.clone(),
            };
            let input_arc = Arc::new(input.clone());
            let route = RouteRef::ibgp(RouterId(neighbor), &input_arc);
            for stored in candidates(&input, neighbor, &clusters, &other, &other_clusters, pick) {
                let accepted = role.reflection(route).matches(&stored);
                prop_assert_eq!(accepted, stored == fresh, "stored {:?}", stored);
                // Filed under the fresh reflection's path id, so the
                // lookup reaches the check.
                let stored = intern(stored);
                let (got_id, got) = role.reflection(route).interned(&[&[(id, stored.clone())]]);
                prop_assert_eq!(got_id, id);
                prop_assert!(Arc::ptr_eq(&got, &intern(fresh.clone())));
                prop_assert_eq!(Arc::ptr_eq(&got, &stored), accepted);
            }
        }
    }
}
