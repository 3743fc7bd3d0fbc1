//! ARR role (paper §2.1, Table 1 right column): address-partition
//! route reflection. Holds the managed-route Adj-RIB-In for the APs
//! this router serves and advertises the *best AS-level routes* to all
//! clients, with the §2.3.2 reflected-bit / cluster-list loop
//! prevention.

use super::{Chassis, Role, Rx};
use crate::msg::{Plane, SessionMsg};
use crate::node::group;
use crate::spec::{AbrrLoopPrevention, Mode, NetworkSpec};
use bgp_rib::{
    best_as_level, Candidate, HeapBytes, PathSet, PrefixId, PrefixIndex, RibInColumn, RibInEntry,
};
use bgp_types::{
    intern, ApId, ClusterId, Ipv4Prefix, OriginatorId, PathAttributes, PathId, RouterId,
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
                .client_role_nodes()
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
        let cands: Vec<Candidate> = self.arr_in.candidates(id).collect();
        let surv = best_as_level(&cands, &ch.spec.decision);
        let set: Arc<PathSet> = surv
            .iter()
            .map(|&i| {
                let c = &cands[i];
                let mut a = (*c.attrs).clone();
                // Stamp provenance so clients can tie-break by true
                // originator and so the sender-exclusion works.
                if a.originator_id.is_none() {
                    a.originator_id = Some(OriginatorId(c.neighbor_id));
                }
                match ch.spec.abrr_loop_prevention {
                    AbrrLoopPrevention::ReflectedBit => {
                        a = a.with_abrr_reflected();
                    }
                    AbrrLoopPrevention::ClusterList => {
                        // RFC 4456 default: cluster id = router id.
                        a.cluster_list.insert(0, ClusterId(ch.id.0));
                    }
                    AbrrLoopPrevention::None => {}
                }
                (PathId(a.originator_id.expect("set").0), intern(a))
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
            .client_role_nodes()
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
                .any(|(_, a)| a.cluster_list.contains(&ClusterId(ch.id.0))),
            AbrrLoopPrevention::None => false,
        };
        if looped {
            ch.counters.loop_prevented += 1;
            return false;
        }
        self.arr_in.set_paths(from, id, &paths[..])
    }

    pub(crate) fn reselect(
        &self,
        ch: &Chassis,
        prefix: &Ipv4Prefix,
        id: PrefixId,
        cands: &mut Vec<Candidate>,
    ) {
        // An ARR's client function sees its managed routes internally
        // (the "logical pass" of §2.1) rather than via a session. Its
        // OWN advertisements are excluded: a router never receives its
        // own route back in full-mesh ("not returned to sender"), and
        // considering the echo here can wedge the node on a stale copy
        // of a route it has since withdrawn (its real eBGP/local routes
        // already entered the candidate set via the border role).
        if ch.spec.mode.has_abrr()
            && (ch.spec.mode == Mode::Abrr || ch.use_abrr_for(prefix))
            && self.arr_aps.iter().any(|ap| ch.ap_covers(*ap, prefix))
        {
            let managed = self.arr_in.candidates(id);
            cands.extend(managed.filter(|c| c.neighbor_id != ch.id.0));
        }
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
