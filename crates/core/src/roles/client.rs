//! Client role: the data-plane function every router runs (paper
//! §2.1). Holds the mesh/ABRR-plane and TBRR-plane Adj-RIB-Ins with the
//! §3.4 reduced-storage policy, and advertises the router's best route
//! up to its reflectors (or the full mesh).

use super::{
    ibgp_routes, originated_by, with_default_local_pref, without, AdvertiseEnv, Chassis, Images,
    Role, Rx,
};
use crate::msg::{BgpMsg, Plane, SessionMsg};
use crate::node::group;
use crate::spec::{Mode, NetworkSpec};
use bgp_rib::{
    best_path_of, HeapBytes, PathSet, PrefixId, PrefixIndex, RibInColumn, RibInEntry, RouteRef,
};
use bgp_types::{Ipv4Prefix, PathAttributes, PathId, RouterId};
use netsim::Ctx;
use std::sync::Arc;

/// The client function of a router: one Adj-RIB-In per reflection
/// plane, reduced to best-per-peer for multi-path senders (§3.4), plus
/// the client-side TBRR session configuration.
pub struct ClientRole {
    /// Client-role iBGP Adj-RIB-In for the mesh/ABRR planes (like every
    /// role's table, a column over `Chassis::index`).
    client_in: RibInColumn,
    /// Client-role Adj-RIB-In for the TBRR plane. Kept separate so the
    /// §2.4 transition can accept one plane per AP even when the same
    /// physical router is both an ARR and a TRR.
    client_in_tbrr: RibInColumn,
    /// TBRR: this node's TRRs (client side), empty if none.
    my_trrs: Vec<RouterId>,
    /// Whether this router also runs the TRR function. Fixed at
    /// construction (cluster assignment is static); gates the
    /// client→TRR advertisement (a TRR's own routes flow via TRR
    /// rules, Table 1).
    is_trr_node: bool,
}

impl ClientRole {
    pub(crate) fn new(id: RouterId, spec: &NetworkSpec) -> ClientRole {
        ClientRole {
            client_in: RibInColumn::new(),
            client_in_tbrr: RibInColumn::new(),
            my_trrs: spec.trrs_of_client(id),
            is_trr_node: !spec.trr_clusters_of(id).is_empty(),
        }
    }

    /// Materializes the client side's peer groups: the full mesh, the
    /// client→ARR group per address partition, and the client→TRR group.
    pub(crate) fn install_groups(&self, ch: &mut Chassis) {
        match ch.spec.mode {
            Mode::FullMesh => {
                let members: Vec<RouterId> = ch
                    .spec
                    .all_nodes()
                    .into_iter()
                    .filter(|n| *n != ch.id)
                    .collect();
                ch.out.define_group(group::MESH, members);
            }
            _ => {
                if ch.spec.mode.has_abrr() {
                    if let Some(map) = &ch.spec.ap_map {
                        for part in map.partitions() {
                            let ap = part.id;
                            ch.out.define_group(
                                group::CLIENT_TO_ARRS + ap.0 as u32,
                                ch.spec.arrs_of(ap).to_vec(),
                            );
                        }
                    }
                }
                if ch.spec.mode.has_tbrr() && !self.my_trrs.is_empty() {
                    ch.out
                        .define_group(group::CLIENT_TO_TRRS, self.my_trrs.clone());
                }
            }
        }
    }

    /// The TRRs this router is a client of (shell classification).
    pub(crate) fn my_trrs(&self) -> &[RouterId] {
        &self.my_trrs
    }

    /// The stored entries from `peer` for `prefix` (post-reduction),
    /// whichever plane holds them.
    pub(crate) fn paths_from(&self, peer: RouterId, id: PrefixId) -> &[RibInEntry] {
        let mesh_abrr = self.client_in.paths(peer, id);
        if mesh_abrr.is_empty() {
            self.client_in_tbrr.paths(peer, id)
        } else {
            mesh_abrr
        }
    }

    /// Candidates for a pre-installed backup exit: every stored route
    /// whose exit differs from `primary` (§3.2/§3.4 extension).
    pub(crate) fn backup_candidates(
        &self,
        id: PrefixId,
        primary: RouterId,
    ) -> impl Iterator<Item = RouteRef<'_>> + Clone {
        [&self.client_in, &self.client_in_tbrr]
            .into_iter()
            .flat_map(move |rib| rib.candidates(id))
            .filter(move |c| RouterId(c.attrs.next_hop.0) != primary)
    }

    /// Drops reflected routes learned from `arr` for prefixes covered by
    /// `ap` (runtime AP reassignment: a losing ARR's withdrawals would
    /// no longer classify, so the client drops proactively). Returns the
    /// affected prefixes.
    pub(crate) fn drop_from_arr(
        &mut self,
        ch: &Chassis,
        ap: bgp_types::ApId,
        arr: RouterId,
    ) -> Vec<Ipv4Prefix> {
        // Gather the AP's covered prefixes by range query (range
        // overlap is exactly `Partition::covers`).
        let mut covered = std::collections::BTreeSet::new();
        ch.index.read(|ix| {
            for r in ch.ap_ranges(ap) {
                covered.extend(self.client_in.known_prefixes_in(ix, r.start(), r.end()));
            }
        });
        // Probe first: a withdrawal registers the session, even a no-op.
        let rib = &mut self.client_in;
        covered.retain(|&(_, id)| !rib.paths(arr, id).is_empty() && rib.withdraw(arr, id));
        covered.into_iter().map(|(p, _)| p).collect()
    }

    /// Client-role receive: reduce multi-path sets to our single best
    /// (paper §3.4) and store per sender.
    pub(crate) fn absorb(&mut self, ch: &mut Chassis, rx: Rx) -> bool {
        let Rx {
            from,
            plane,
            id,
            paths,
            own_ever,
        } = rx;
        // Loop prevention: our own routes reflected back are dropped.
        let kept = without(&paths, |a| originated_by(a, ch.id));
        ch.counters.loop_prevented += (paths.len() - kept.len()) as u64;
        let pair; // the reduced set when a backup is kept beside the best
        let stored: &[(PathId, Arc<PathAttributes>)] = if kept.len() > 1 && !own_ever {
            // The routes are decided where they lie: no candidate list.
            let routes = kept.iter().map(|(_, a)| RouteRef::ibgp(from, a));
            let igp = ch.igp_metric_fn();
            let best = best_path_of(routes.clone(), &ch.spec.decision, &igp);
            // §3.2/§3.4 extension: optionally retain the runner-up as a
            // pre-installed fast-reroute backup.
            let backup = if ch.spec.clients_keep_backups {
                best.and_then(|b| {
                    let rest = routes.enumerate().filter(|(i, _)| *i != b);
                    // `rest` is the routes without index `b`: map back.
                    best_path_of(rest.map(|(_, r)| r), &ch.spec.decision, &igp)
                        .map(|j| j + usize::from(j >= b))
                })
            } else {
                None
            };
            match (best, backup) {
                (Some(i), Some(j)) => {
                    pair = [kept[i].clone(), kept[j].clone()];
                    &pair
                }
                (Some(i), None) => &kept[i..=i],
                (None, _) => &[],
            }
        } else {
            &kept
        };
        let rib = match plane {
            Plane::Tbrr => &mut self.client_in_tbrr,
            Plane::Mesh | Plane::Abrr => &mut self.client_in,
        };
        rib.set_paths(from, id, stored)
    }

    /// The routes the client function contributes to `prefix`'s
    /// decision: each accepted plane's stored routes, mesh/ABRR plane
    /// first.
    pub(crate) fn routes<'a>(
        &'a self,
        ch: &Chassis,
        prefix: &Ipv4Prefix,
        id: PrefixId,
    ) -> impl Iterator<Item = RouteRef<'a>> + Clone + 'a {
        let use_abrr = ch.use_abrr_for(prefix);
        // Mesh/ABRR-plane routes: accepted except for a transition
        // router whose AP has not been cut over yet.
        let accept_mesh_abrr = match ch.spec.mode {
            Mode::FullMesh | Mode::Abrr => true,
            Mode::Tbrr { .. } => false,
            Mode::Transition => use_abrr,
        };
        // TBRR-plane routes: accepted in TBRR mode, or pre-cutover in
        // transition.
        let accept_tbrr = match ch.spec.mode {
            Mode::Tbrr { .. } => true,
            Mode::Transition => !use_abrr,
            _ => false,
        };
        let plane = |accept: bool, rib: &'a RibInColumn| if accept { rib.row(id) } else { &[] };
        ibgp_routes(plane(accept_mesh_abrr, &self.client_in))
            .chain(ibgp_routes(plane(accept_tbrr, &self.client_in_tbrr)))
    }

    /// The client function's advertisement step (Table 1 rows
    /// "Client → ARR" / "Client → TRR" / full-mesh row): advertise the
    /// best route iff it is other-learned; withdraw otherwise. The
    /// hand-off to this router's *own* ARR function travels through
    /// `AdvertiseEnv::arr` (§2.1's logical pass), not a session.
    pub(crate) fn advertise(
        &mut self,
        ch: &mut Chassis,
        ctx: &mut Ctx<SessionMsg>,
        prefix: Ipv4Prefix,
        env: &mut AdvertiseEnv<'_>,
    ) {
        let adv: Arc<PathSet> = match env.sel {
            Some(s) if s.source.is_other_learned() => {
                Arc::new(vec![(PathId(ch.id.0), with_default_local_pref(&s.attrs))])
            }
            _ => ch.no_paths.clone(),
        };
        match ch.spec.mode {
            Mode::FullMesh => {
                ch.advertise_group(ctx, group::MESH, prefix, Plane::Mesh, adv, |_| false);
            }
            _ => {
                if ch.spec.mode.has_abrr() {
                    let mut images = Images::new();
                    // The loop body needs all of `ch`; the walk over the
                    // partitions borrows only the spec.
                    let spec = Arc::clone(&ch.spec);
                    for ap in spec.aps_covering(&prefix) {
                        let g = group::CLIENT_TO_ARRS + ap.0 as u32;
                        let changed = ch.out.set_paths(g, prefix, &adv[..]);
                        if !changed {
                            continue;
                        }
                        ch.counters.generated += 1;
                        for &arr in ch.out.members_shared(g).iter() {
                            if arr == ch.id {
                                // Logical pass to our own ARR function.
                                if let Some(own_arr) = env.arr.as_deref_mut() {
                                    own_arr.input_internal(ch, ctx, prefix, env.id, &adv);
                                }
                            } else {
                                ch.transmit(
                                    ctx,
                                    arr,
                                    BgpMsg {
                                        prefix,
                                        paths: adv.clone(),
                                        plane: Plane::Abrr,
                                    },
                                    Some(&mut images),
                                );
                            }
                        }
                    }
                }
                if ch.spec.mode.has_tbrr() && !self.is_trr_node && !self.my_trrs.is_empty() {
                    ch.advertise_group(
                        ctx,
                        group::CLIENT_TO_TRRS,
                        prefix,
                        Plane::Tbrr,
                        adv,
                        |_| false,
                    );
                }
            }
        }
    }

    /// Drops everything learned from `peer` (RFC 4271 §6 teardown).
    /// Returns the affected prefixes, each with its id in `index`.
    pub(crate) fn drop_peer(
        &mut self,
        index: &PrefixIndex,
        peer: RouterId,
    ) -> Vec<(Ipv4Prefix, PrefixId)> {
        let mut affected = self.client_in.drop_peer(index, peer);
        affected.extend(self.client_in_tbrr.drop_peer(index, peer));
        affected
    }

    /// Crash-restart with RIB loss: both planes' Adj-RIB-Ins go.
    pub(crate) fn on_restart(&mut self) {
        self.client_in = RibInColumn::new();
        self.client_in_tbrr = RibInColumn::new();
    }
}

impl Role for ClientRole {
    fn rib_in_entries(&self) -> usize {
        self.client_in.num_entries() + self.client_in_tbrr.num_entries()
    }

    fn known_prefixes_in(
        &self,
        index: &PrefixIndex,
        range_start: u32,
        range_end: u32,
    ) -> Vec<Ipv4Prefix> {
        let planes = [&self.client_in, &self.client_in_tbrr];
        let known = planes.map(|rib| rib.known_prefixes_in(index, range_start, range_end));
        let mut v: Vec<Ipv4Prefix> = known.into_iter().flatten().map(|(p, _)| p).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    fn slots(&self) -> usize {
        self.client_in.slots() + self.client_in_tbrr.slots()
    }

    fn heap_bytes(&self) -> HeapBytes {
        self.client_in.heap_bytes() + self.client_in_tbrr.heap_bytes()
    }
}
