//! TRR role (paper Table 1 left column; RFC 4456): topology-based
//! route reflection with cluster-list/originator-id loop prevention, in
//! single-path and multi-path (Appendix A.3) variants.

use super::{ibgp_routes, originated_by, route_at, without, AdvertiseEnv, Chassis, Role, Rx};
use crate::msg::{Plane, SessionMsg};
use crate::node::group;
use crate::spec::{Mode, NetworkSpec};
use bgp_rib::{
    best_as_level_of, best_path_of, Candidate, HeapBytes, PathSet, PrefixId, PrefixIndex,
    RibInColumn, RouteRef,
};
use bgp_types::{
    intern, ClusterId, Ipv4Prefix, OriginatorId, PathAttributes, PathId, RouteSource, RouterId,
};
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

    /// Builds the TRR's reflected version of a route — ORIGINATOR_ID set
    /// to the injecting router, our cluster id(s) prepended — under the
    /// originator's path id.
    fn reflected(&self, r: RouteRef<'_>) -> (PathId, Arc<PathAttributes>) {
        let mut a = PathAttributes::clone(r.attrs);
        if a.local_pref.is_none() {
            a.local_pref = Some(bgp_types::LocalPref::DEFAULT);
        }
        if a.originator_id.is_none() {
            a.originator_id = Some(OriginatorId(r.neighbor_id));
        }
        for cid in self.trr_clusters.iter().rev() {
            a.cluster_list.insert(0, ClusterId(*cid));
        }
        (PathId(a.originator_id.expect("set").0), intern(a))
    }

    /// TRR advertisement per Table 1 (single-path) or Appendix A.3
    /// (multi-path). `routes` is the TBRR-plane candidate set; `best`
    /// the TRR's own selection among them.
    fn reflect<'a>(
        &self,
        ch: &mut Chassis,
        ctx: &mut Ctx<SessionMsg>,
        prefix: Ipv4Prefix,
        routes: impl Iterator<Item = RouteRef<'a>> + Clone,
        best: Option<usize>,
    ) {
        let my_clients = ch.out.members_shared(group::TRR_TO_CLIENTS);
        let from_client_side = |r: &RouteRef| match r.source {
            RouteSource::Ibgp { peer } => my_clients.contains(&peer),
            RouteSource::Ebgp { .. } | RouteSource::Local => true,
        };
        if ch.spec.mode.tbrr_multipath() {
            // Multi-path TBRR (Appendix A.3): all best AS-level routes
            // go to clients; the client-side best AS-level routes go to
            // other TRRs.
            let surv = best_as_level_of(routes.clone(), &ch.spec.decision);
            let to_clients: PathSet = surv
                .iter()
                .map(|&i| self.reflected(route_at(&routes, i)))
                .collect();
            let client_side = routes.filter(|r| from_client_side(r));
            let surv_cs = best_as_level_of(client_side.clone(), &ch.spec.decision);
            let to_peers: PathSet = surv_cs
                .iter()
                .map(|&i| self.reflected(route_at(&client_side, i)))
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
            let (to_clients, to_peers, sender) = match best {
                Some(i) => {
                    let r = route_at(&routes, i);
                    let entry = Arc::new(vec![self.reflected(r)]);
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
                .cluster_list
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
    /// client-role tables are provably empty), pick the plane-local
    /// best, and reflect.
    pub(crate) fn advertise(
        &mut self,
        ch: &mut Chassis,
        ctx: &mut Ctx<SessionMsg>,
        prefix: Ipv4Prefix,
        env: &mut AdvertiseEnv<'_>,
    ) {
        let exits = env.exit_cands.iter().map(Candidate::route);
        let routes = exits.chain(ibgp_routes(self.trr_in.row(env.id)));
        let igp = ch.igp_metric_fn();
        let best = best_path_of(routes.clone(), &ch.spec.decision, &igp);
        drop(igp);
        self.reflect(ch, ctx, prefix, routes, best);
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
