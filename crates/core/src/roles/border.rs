//! Border role: eBGP ingestion, local origination, and own-route
//! stickiness.
//!
//! This role has no iBGP plane of its own — its inputs are operator and
//! eBGP events delivered by the shell — but it seeds every other role's
//! view: the exit candidates (local + eBGP routes) it contributes via
//! `BorderRole::reselect` are what the client, ARR, and TRR functions
//! redistribute. Its eBGP Adj-RIB-In is a private [`PrefixTable`]:
//! point lookups per event, range queries sorted by the table.

use super::{AdvertiseEnv, Chassis, Role};
use bgp_rib::{Candidate, HeapBytes, PrefixIndex};
use bgp_types::{
    intern, AddressRange, Asn, Ipv4Prefix, NextHop, PathAttributes, PrefixTable, RouteSource,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// An eBGP-learned route held at a border router.
#[derive(Clone, Debug)]
struct EbgpRoute {
    peer_as: Asn,
    attrs: Arc<PathAttributes>,
}

/// The border function of a router (paper Table 1, "Client ↔ eBGP
/// Neighbor" rows): eBGP Adj-RIB-In, locally-originated prefixes, and
/// the sticky own-route set the client role's §3.4 storage policy
/// consults.
pub struct BorderRole {
    /// eBGP Adj-RIB-In: prefix → (peer_addr → route). The outer table
    /// is a private hashed table holding the session maps in its
    /// buckets — every `reselect` probes it, and only range queries,
    /// which it sorts, need order — not a column over the router's
    /// index: a border router learns a small share of the prefixes it
    /// routes over eBGP, and a dense 24-byte row for each of them would
    /// cost more than this small table (DESIGN.md §13). The inner map stays
    /// ordered because peer order reaches the decision process's
    /// candidate list.
    ebgp_in: PrefixTable<BTreeMap<u32, EbgpRoute>>,
    /// Distinct eBGP session addresses ever seen (sessions outlive the
    /// routes they advertise; used for export accounting).
    ebgp_sessions: BTreeSet<u32>,
    /// Locally-originated prefixes.
    local_prefixes: BTreeSet<Ipv4Prefix>,
    /// Prefixes this node has *ever* originated or learned over eBGP
    /// (sticky). For these, the client role stores the full received
    /// path set instead of its reduced best: a reduced set could drop
    /// exactly the route that MED-eliminates one of our own routes,
    /// silently diverging from full-mesh semantics. Pure control-plane
    /// nodes never hit this and keep the paper's §3.4 one-best-per-RR
    /// storage, which is what the Appendix A client accounting counts.
    own_ever: BTreeSet<Ipv4Prefix>,
}

impl BorderRole {
    pub(crate) fn new() -> BorderRole {
        BorderRole {
            ebgp_in: PrefixTable::new(),
            ebgp_sessions: BTreeSet::new(),
            local_prefixes: BTreeSet::new(),
            own_ever: BTreeSet::new(),
        }
    }

    /// Whether this router currently holds an eBGP or locally-originated
    /// route for `prefix` — i.e. whether it can act as the AS's exit.
    pub(crate) fn originates(&self, prefix: &Ipv4Prefix) -> bool {
        self.local_prefixes.contains(prefix) || self.ebgp_in.get(prefix).is_some()
    }

    /// Whether `prefix` is in the sticky own-route set (see field docs).
    pub(crate) fn own_ever_contains(&self, prefix: &Ipv4Prefix) -> bool {
        self.own_ever.contains(prefix)
    }

    /// eBGP Adj-RIB-In entries.
    pub(crate) fn ebgp_entries(&self) -> usize {
        self.ebgp_in.values().map(BTreeMap::len).sum()
    }

    /// The configured local prefixes (cloned: callers re-originate while
    /// mutating the node).
    pub(crate) fn local_prefixes(&self) -> Vec<Ipv4Prefix> {
        self.local_prefixes.iter().copied().collect()
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
        self.own_ever.insert(prefix);
        self.ebgp_sessions.insert(peer_addr);
        self.ebgp_in
            .get_or_insert_with(prefix, BTreeMap::new)
            .insert(
                peer_addr,
                EbgpRoute {
                    peer_as,
                    attrs: intern(a),
                },
            );
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
        let mut removed = false;
        let mut now_empty = false;
        if let Some(m) = self.ebgp_in.get_mut(&prefix) {
            removed = m.remove(&peer_addr).is_some();
            now_empty = m.is_empty();
        }
        if now_empty {
            self.ebgp_in.remove(&prefix);
        }
        removed
    }

    /// Local origination toggle. Returns whether the configured set
    /// changed.
    pub(crate) fn set_local(&mut self, prefix: Ipv4Prefix, announce: bool) -> bool {
        if announce {
            self.own_ever.insert(prefix);
            self.local_prefixes.insert(prefix)
        } else {
            self.local_prefixes.remove(&prefix)
        }
    }

    /// Contributes the exit candidates for `prefix`: the local route,
    /// then the eBGP routes in peer-address order.
    pub(crate) fn reselect(&self, ch: &Chassis, prefix: &Ipv4Prefix, cands: &mut Vec<Candidate>) {
        if self.local_prefixes.contains(prefix) {
            cands.push(Candidate {
                attrs: intern(PathAttributes::local(NextHop(ch.id.0))),
                source: RouteSource::Local,
                neighbor_id: ch.id.0,
            });
        }
        if let Some(peers) = self.ebgp_in.get(prefix) {
            for (peer_addr, r) in peers {
                cands.push(Candidate {
                    attrs: r.attrs.clone(),
                    source: RouteSource::Ebgp {
                        peer_as: r.peer_as,
                        peer_addr: *peer_addr,
                    },
                    neighbor_id: *peer_addr,
                });
            }
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

    /// Crash-restart: eBGP-learned state is runtime; the configured
    /// local prefixes survive, and stickiness resets to exactly them.
    pub(crate) fn on_restart(&mut self) {
        self.ebgp_in.clear();
        self.ebgp_sessions.clear();
        self.own_ever = self.local_prefixes.clone();
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
        let range = AddressRange::new(range_start, range_end);
        let local = self
            .local_prefixes
            .iter()
            .filter(|p| range.overlaps_prefix(p));
        let ebgp = self.ebgp_in.iter_overlapping(range_start, range_end);
        let known: BTreeSet<Ipv4Prefix> = ebgp.map(|(p, _)| p).chain(local.copied()).collect();
        known.into_iter().collect()
    }

    fn slots(&self) -> usize {
        self.ebgp_in.len()
    }

    fn heap_bytes(&self) -> HeapBytes {
        // The table, each session map's header inline; the maps' own
        // `BTreeMap` nodes are not counted.
        HeapBytes {
            index: self.ebgp_in.heap_bytes(),
            ..HeapBytes::default()
        }
    }
}
