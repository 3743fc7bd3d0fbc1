//! ARR role (paper §2.1, Table 1 right column): address-partition
//! route reflection. Holds the managed-route Adj-RIB-In for the APs
//! this router serves and advertises the *best AS-level routes* to all
//! clients, with the §2.3.2 reflected-bit / cluster-list loop
//! prevention.

use super::reflection::Reflection;
use super::{ibgp_routes, Chassis, Role, Rx};
use crate::msg::{Plane, SessionMsg};
use crate::node::group;
use crate::spec::{AbrrLoopPrevention, Mode, NetworkSpec};
use bgp_rib::{
    best_as_level_of, HeapBytes, PathSet, PrefixId, PrefixIndex, RibInColumn, RibInEntry, RouteRef,
};
use bgp_types::{
    ApId, ClusterId, ExtCommunity, Ipv4Prefix, OriginatorId, PathAttributes, PathId, RouterId,
};
use netsim::Ctx;
use std::sync::Arc;

/// The ARR function of a router: the managed-route table for its
/// address partitions.
pub struct ArrRole {
    /// ARR-role Adj-RIB-In (managed routes).
    arr_in: RibInColumn,
    /// APs this node reflects. Mutable at runtime (§2.2 reassignment).
    arr_aps: Vec<ApId>,
}

impl ArrRole {
    pub(crate) fn new(id: RouterId, spec: &NetworkSpec) -> ArrRole {
        ArrRole {
            arr_in: RibInColumn::new(),
            arr_aps: spec.arr_aps_of(id),
        }
    }

    /// Materializes the ARR→clients peer group per served AP
    /// ("to all clients (excluding other ARRs for the same AP)" —
    /// Appendix A.1).
    pub(crate) fn install_groups(&self, ch: &mut Chassis) {
        if ch.spec.mode == Mode::FullMesh || !ch.spec.mode.has_abrr() {
            return;
        }
        for ap in &self.arr_aps {
            let co_arrs = ch.spec.arrs_of(*ap).to_vec();
            let members: Vec<RouterId> = ch
                .spec
                .all_nodes()
                .into_iter()
                .filter(|n| *n != ch.id && !co_arrs.contains(n))
                .collect();
            ch.out
                .define_group(group::ARR_TO_CLIENTS + ap.0 as u32, members);
        }
    }

    /// The APs this router currently serves (shell classification).
    pub(crate) fn aps(&self) -> &[ApId] {
        &self.arr_aps
    }

    /// The managed paths currently stored from `peer` for `prefix`.
    pub(crate) fn paths_from(&self, peer: RouterId, id: PrefixId) -> &[RibInEntry] {
        self.arr_in.paths(peer, id)
    }

    /// Internal logical pass from this router's own client function
    /// (§2.1: no iBGP message between a router's own roles).
    pub(crate) fn input_internal(
        &mut self,
        ch: &mut Chassis,
        ctx: &mut Ctx<SessionMsg>,
        prefix: Ipv4Prefix,
        id: PrefixId,
        paths: &[(PathId, Arc<PathAttributes>)],
    ) {
        if self.arr_in.set_paths(ch.id, id, paths) {
            self.recompute(ch, ctx, prefix, id);
            // No client recompute here: the caller is our own client
            // function, which already selected.
        }
    }

    /// Recomputes the best AS-level route set for `prefix` and
    /// advertises it to all clients (Table 1: "ARR → Client: best
    /// AS-level routes, not returned to sender").
    pub(crate) fn recompute(
        &mut self,
        ch: &mut Chassis,
        ctx: &mut Ctx<SessionMsg>,
        prefix: Ipv4Prefix,
        id: PrefixId,
    ) {
        // Decided where the routes lie: no candidate list.
        let row = self.arr_in.row(id);
        let surv = best_as_level_of(ibgp_routes(row), &ch.spec.decision);
        // What this ARR last advertised for the prefix: every group
        // that covers it was handed the same set.
        let covering = self.arr_aps.iter().find(|ap| ch.ap_covers(**ap, &prefix));
        let known = covering.map_or(&[][..], |ap| {
            ch.out.paths(group::ARR_TO_CLIENTS + ap.0 as u32, &prefix)
        });
        let mode = ch.spec.abrr_loop_prevention;
        let set: Arc<PathSet> = surv
            .iter()
            .map(|&i| {
                let (peer, _, attrs) = &row[i];
                reflection(mode, &ch.id, *peer, attrs).interned(&[known])
            })
            .collect::<PathSet>()
            .into();
        for &ap in &self.arr_aps {
            if !ch.ap_covers(ap, &prefix) {
                continue;
            }
            let g = group::ARR_TO_CLIENTS + ap.0 as u32;
            // advertise_group() handles change detection and per-member
            // originator filtering.
            ch.advertise_group(ctx, g, prefix, Plane::Abrr, set.clone(), |_| false);
        }
    }

    /// Runtime AP reassignment, losing side (§2.2): withdraw everything
    /// reflected for `ap`, drop the role, and evict managed routes no
    /// remaining role covers (a prefix can span APs).
    pub(crate) fn lose_ap(&mut self, ch: &mut Chassis, ctx: &mut Ctx<SessionMsg>, ap: ApId) {
        let g = group::ARR_TO_CLIENTS + ap.0 as u32;
        let prefixes: Vec<Ipv4Prefix> = ch.out.iter_group(g).map(|(p, _)| p).collect();
        for p in prefixes {
            ch.advertise_group(ctx, g, p, Plane::Abrr, ch.no_paths.clone(), |_| false);
        }
        ch.out.reset_group(g, Vec::new());
        self.arr_aps.retain(|a| *a != ap);
        let peers: Vec<RouterId> = self.arr_in.peers().collect();
        // Evict managed routes no remaining AP covers, gathering the
        // lost AP's prefixes by range query (range overlap is exactly
        // `Partition::covers`).
        let mut covered = std::collections::BTreeSet::new();
        for r in ch.ap_ranges(ap) {
            let known = self.arr_in.known_prefixes_in(&ch.index, r.start(), r.end());
            covered.extend(known);
        }
        for (p, id) in covered {
            let still_served = self.arr_aps.iter().any(|a2| ch.ap_covers(*a2, &p));
            if !still_served {
                for peer in &peers {
                    self.arr_in.withdraw(*peer, id);
                }
            }
        }
    }

    /// Runtime AP reassignment, gaining side (§2.2): take the role and
    /// open an (empty) client group that fills as clients re-advertise.
    pub(crate) fn gain_ap(&mut self, ch: &mut Chassis, ap: ApId, new_arrs: &[RouterId]) {
        self.arr_aps.push(ap);
        self.arr_aps.sort();
        let members: Vec<RouterId> = ch
            .spec
            .all_nodes()
            .into_iter()
            .filter(|n| *n != ch.id && !new_arrs.contains(n))
            .collect();
        ch.out
            .reset_group(group::ARR_TO_CLIENTS + ap.0 as u32, members);
    }

    /// ARR-role input arriving over a session, with §2.3.2 loop
    /// prevention: an update already reflected by an ARR must never be
    /// reflected again. The paper's single marker bit stops it at the
    /// first re-reflection; CLUSTER_LIST lets it circulate once before
    /// the stamping ARR recognizes its own id.
    pub(crate) fn absorb(&mut self, ch: &mut Chassis, rx: Rx) -> bool {
        let Rx {
            from, id, paths, ..
        } = rx;
        let looped = match ch.spec.abrr_loop_prevention {
            AbrrLoopPrevention::ReflectedBit => paths.iter().any(|(_, a)| a.is_abrr_reflected()),
            AbrrLoopPrevention::ClusterList => paths
                .iter()
                .any(|(_, a)| a.cluster_list().contains(ClusterId(ch.id.0))),
            AbrrLoopPrevention::None => false,
        };
        if looped {
            ch.counters.loop_prevented += 1;
            return false;
        }
        self.arr_in.set_paths(from, id, &paths[..])
    }

    /// The managed routes the ARR function contributes to `prefix`'s
    /// decision.
    pub(crate) fn routes<'a>(
        &'a self,
        ch: &Chassis,
        prefix: &Ipv4Prefix,
        id: PrefixId,
    ) -> impl Iterator<Item = RouteRef<'a>> + Clone + 'a {
        // An ARR's client function sees its managed routes internally
        // (the "logical pass" of §2.1) rather than via a session. Its
        // OWN advertisements are excluded: a router never receives its
        // own route back in full-mesh ("not returned to sender"), and
        // considering the echo here can wedge the node on a stale copy
        // of a route it has since withdrawn (its real eBGP/local routes
        // already entered the candidate set via the border role).
        let managed = ch.spec.mode.has_abrr()
            && (ch.spec.mode == Mode::Abrr || ch.use_abrr_for(prefix))
            && self.arr_aps.iter().any(|ap| ch.ap_covers(*ap, prefix));
        let me = ch.id;
        let row = if managed { self.arr_in.row(id) } else { &[] };
        ibgp_routes(row).filter(move |r| r.neighbor_id != me.0)
    }

    /// Drops everything learned from `peer` (RFC 4271 §6 teardown).
    /// Returns the affected prefixes, each with its id in `index`.
    pub(crate) fn drop_peer(
        &mut self,
        index: &PrefixIndex,
        peer: RouterId,
    ) -> Vec<(Ipv4Prefix, PrefixId)> {
        self.arr_in.drop_peer(index, peer)
    }

    /// Crash-restart with RIB loss: the Adj-RIB-In goes.
    pub(crate) fn on_restart(&mut self) {
        self.arr_in = RibInColumn::new();
    }
}

/// ARR `me`'s reflection of `attrs`, learned from `peer` (§2.3.2):
/// ORIGINATOR_ID stamped (clients tie-break on it, and it drives the
/// sender exclusion), and the mark of `mode` — the reflected marker
/// appended unless present, or `me` (RFC 4456's default cluster id)
/// prepended to the CLUSTER_LIST, or nothing.
fn reflection<'a>(
    mode: AbrrLoopPrevention,
    me: &'a RouterId,
    peer: RouterId,
    attrs: &'a PathAttributes,
) -> Reflection<'a> {
    let (clusters, marker) = match mode {
        AbrrLoopPrevention::ReflectedBit => {
            let unmarked = !attrs.is_abrr_reflected();
            (&[][..], unmarked.then_some(ExtCommunity::ABRR_REFLECTED))
        }
        AbrrLoopPrevention::ClusterList => (std::slice::from_ref(&me.0), None),
        AbrrLoopPrevention::None => (&[][..], None),
    };
    Reflection {
        base: attrs,
        local_pref: attrs.local_pref,
        originator: attrs.originator_id.unwrap_or(OriginatorId(peer.0)),
        clusters,
        marker,
    }
}

impl Role for ArrRole {
    fn rib_in_entries(&self) -> usize {
        self.arr_in.num_entries()
    }

    fn known_prefixes_in(
        &self,
        index: &PrefixIndex,
        range_start: u32,
        range_end: u32,
    ) -> Vec<Ipv4Prefix> {
        let known = self.arr_in.known_prefixes_in(index, range_start, range_end);
        known.map(|(p, _)| p).collect()
    }

    fn slots(&self) -> usize {
        self.arr_in.slots()
    }

    fn heap_bytes(&self) -> HeapBytes {
        self.arr_in.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roles::strategies::{arb_attrs, boundary_moved};
    use bgp_types::intern;
    use proptest::prelude::*;

    /// An ARR's reflection as §2.3.2 defines it, written apart from
    /// [`reflection`]: ORIGINATOR_ID the injecting neighbor unless
    /// already set, then the reflected marker appended unless present,
    /// or the ARR's id prepended to the CLUSTER_LIST, or nothing.
    fn reference(
        input: &PathAttributes,
        neighbor: u32,
        mode: AbrrLoopPrevention,
        me: u32,
    ) -> PathAttributes {
        let mut ext: Vec<ExtCommunity> = input.ext_communities().iter().collect();
        let mut clusters: Vec<ClusterId> = input.cluster_list().iter().collect();
        match mode {
            AbrrLoopPrevention::ReflectedBit => {
                if !ext.contains(&ExtCommunity::ABRR_REFLECTED) {
                    ext.push(ExtCommunity::ABRR_REFLECTED);
                }
            }
            AbrrLoopPrevention::ClusterList => clusters.insert(0, ClusterId(me)),
            AbrrLoopPrevention::None => {}
        }
        let mut out = input.with_lists(input.as_path(), input.communities(), ext, clusters);
        out.originator_id = Some(input.originator_id.unwrap_or(OriginatorId(neighbor)));
        out
    }

    const MODES: [AbrrLoopPrevention; 3] = [
        AbrrLoopPrevention::ReflectedBit,
        AbrrLoopPrevention::ClusterList,
        AbrrLoopPrevention::None,
    ];

    /// The stored sets a lookup may meet for `input`: its own
    /// reflection, the near misses (another originator, another ARR's
    /// reflection, the marker appended twice, another community appended
    /// in its place, the other modes' reflections, one attribute from
    /// another route's reflection, the fresh reflection's words with a
    /// list boundary moved), another route's reflection, and sets no ARR
    /// built.
    fn candidates(
        input: &PathAttributes,
        neighbor: u32,
        mode: AbrrLoopPrevention,
        me: u32,
        other: &PathAttributes,
    ) -> Vec<PathAttributes> {
        let fresh = reference(input, neighbor, mode, me);
        let mut originator_off = fresh.clone();
        originator_off.originator_id = fresh.originator_id.map(|o| OriginatorId(o.0 + 1));
        let ext_plus = |a: &PathAttributes, e: ExtCommunity| {
            let ext = a.ext_communities().iter().chain([e]);
            a.with_lists(a.as_path(), a.communities(), ext, a.cluster_list())
        };
        let marked_twice = ext_plus(&fresh, ExtCommunity::ABRR_REFLECTED);
        let foreign_mark = ext_plus(
            &reference(input, neighbor, AbrrLoopPrevention::None, me),
            ExtCommunity([0; 8]),
        );
        // One attribute at a time taken from another route's reflection.
        let theirs = reference(other, neighbor, mode, me);
        let one_off: [fn(&mut PathAttributes, &PathAttributes); 9] = [
            |a, b| a.origin = b.origin,
            |a, b| {
                *a = a.with_lists(
                    b.as_path(),
                    a.communities(),
                    a.ext_communities(),
                    a.cluster_list(),
                )
            },
            |a, b| a.next_hop = b.next_hop,
            |a, b| a.med = b.med,
            |a, b| a.local_pref = b.local_pref,
            |a, b| {
                *a = a.with_lists(
                    a.as_path(),
                    b.communities(),
                    a.ext_communities(),
                    a.cluster_list(),
                )
            },
            |a, b| {
                *a = a.with_lists(
                    a.as_path(),
                    a.communities(),
                    b.ext_communities(),
                    a.cluster_list(),
                )
            },
            |a, b| a.originator_id = b.originator_id,
            |a, b| {
                *a = a.with_lists(
                    a.as_path(),
                    a.communities(),
                    a.ext_communities(),
                    b.cluster_list(),
                )
            },
        ];
        let one_off = one_off.map(|take| {
            let mut a = fresh.clone();
            take(&mut a, &theirs);
            a
        });
        let moved = boundary_moved(&fresh);
        let mut out = vec![
            fresh,
            originator_off,
            reference(input, neighbor, mode, me + 1),
            marked_twice,
            foreign_mark,
            theirs,
            input.clone(),
            other.clone(),
        ];
        out.extend(MODES.iter().map(|m| reference(input, neighbor, *m, me)));
        out.extend(one_off);
        out.extend(moved);
        out
    }

    proptest! {
        /// The description accepts a stored set exactly when it equals
        /// the reference reflection, in every loop-prevention mode; and
        /// whatever `interned` returns is the stored `Arc` exactly then,
        /// else the interner's `Arc` for the reference.
        #[test]
        fn reuse_accepts_exactly_the_fresh_reflection(
            input in arb_attrs(),
            other in arb_attrs(),
            neighbor in 1u32..4,
            me in 1u32..4,
            mode in prop::sample::select(MODES.to_vec()),
        ) {
            let fresh = reference(&input, neighbor, mode, me);
            let originator = input.originator_id.unwrap_or(OriginatorId(neighbor));
            let id = PathId(originator.0);
            let (me_id, peer) = (RouterId(me), RouterId(neighbor));
            for stored in candidates(&input, neighbor, mode, me, &other) {
                let accepted = reflection(mode, &me_id, peer, &input).matches(&stored);
                prop_assert_eq!(accepted, stored == fresh, "stored {:?}", stored);
                // Filed under the fresh reflection's path id, so the
                // lookup reaches the check.
                let stored = intern(stored);
                let (got_id, got) = reflection(mode, &me_id, peer, &input).interned(&[&[(id, stored.clone())]]);
                prop_assert_eq!(got_id, id);
                prop_assert!(Arc::ptr_eq(&got, &intern(fresh.clone())));
                prop_assert_eq!(Arc::ptr_eq(&got, &stored), accepted);
            }
        }
    }
}
