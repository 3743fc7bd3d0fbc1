//! Per-role protocol engines.
//!
//! The paper's roles are *functions within a router* (§2.1): a
//! data-plane router is a client for every AP; any router may
//! additionally be an ARR for some APs or a TRR for some clusters. This
//! module gives each function its own engine, and the shared [`Role`]
//! trait holds what the shell reads from all of them alike;
//! [`crate::node::BgpNode`] is the thin shell that owns the
//! [`crate::spec::NetworkSpec`], classifies inputs by plane + peer
//! group, and routes them to its role set.
//!
//! Plane → role dispatch (see `BgpNode::classify`):
//!
//! | plane  | sender                      | receiving role |
//! |--------|-----------------------------|----------------|
//! | Mesh   | any (full-mesh mode)        | [`ClientRole`] |
//! | Abrr   | an ARR of a covering AP     | [`ClientRole`] |
//! | Abrr   | a client of an AP we serve  | [`ArrRole`]    |
//! | Tbrr   | anyone, when we reflect     | [`TrrRole`]    |
//! | Tbrr   | one of our TRRs             | [`ClientRole`] |
//!
//! [`BorderRole`] has no iBGP plane: it ingests eBGP/operator events
//! and contributes the exit candidates every other role's decisions
//! start from.
//!
//! Cross-role interaction is explicit: a role never touches a sibling's
//! state directly. The one internal hand-off the paper calls out — a
//! router's client function passing its best route to its *own* ARR
//! function without an iBGP message ("a logical pass", §2.1) — travels
//! through `AdvertiseEnv::arr`.

mod arr;
mod border;
mod client;
mod reflection;
mod trr;

pub use arr::ArrRole;
pub use border::BorderRole;
pub(crate) use border::Exits;
pub use client::ClientRole;
pub use trr::TrrRole;

use crate::msg::{BgpMsg, Plane, SessionMsg, WireFrame};
use crate::node::Selected;
use crate::spec::{Mode, NetworkSpec};
use crate::wire;
use crate::UpdateCounters;
use bgp_rib::{
    best_path_of, AdjRibOut, HeapBytes, LocColumn, PathSet, PrefixId, PrefixIndex, RibInEntry,
    RouteRef,
};
use bgp_types::{ApId, Ipv4Prefix, NextHop, PathAttributes, PathId, RouterId};
use netsim::{Ctx, Mrai, MraiVerdict};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Cached obs registry handles for one router, created lazily the
/// first time metrics are enabled so the hot paths never pay a
/// registry lock — only one relaxed enabled-load plus an atomic add.
///
/// These are per-node series the always-on [`UpdateCounters`] cannot
/// express (those are published from the struct itself, by
/// `BgpNode::record_obs_gauges`). All ops are commutative atomic adds,
/// so sequential and parallel engine runs produce identical snapshots.
pub(crate) struct ObsHandles {
    /// Updates flushed together by one MRAI timer expiry (§4.2 update
    /// batching — the mechanism behind "one combined outbound update").
    pub(crate) mrai_batch: obs::Histogram,
    /// How long MRAI pacing deferred an update, in sim microseconds.
    pub(crate) mrai_defer_us: obs::Histogram,
    /// Candidate-set size entering the decision process.
    pub(crate) decision_candidates: obs::Histogram,
    /// Session bursts put on a session at egress (wire mode on).
    pub(crate) wire_encoded: obs::Counter,
    /// Wire images actually encoded; below `wire_encoded` by what
    /// update-group packing shared (see [`Images`]).
    pub(crate) wire_images_encoded: obs::Counter,
    /// Session bursts decoded at ingress (`Bytes` mode).
    pub(crate) wire_decoded: obs::Counter,
    /// Bytes parsed off the session at ingress (`Bytes` mode).
    pub(crate) wire_bytes_decoded: obs::Counter,
}

impl ObsHandles {
    fn new(id: RouterId) -> ObsHandles {
        let n = Some(id.0);
        ObsHandles {
            mrai_batch: obs::metrics::histogram("core.mrai.batch", n, obs::metrics::COUNT_BOUNDS),
            mrai_defer_us: obs::metrics::histogram(
                "core.mrai.defer_us",
                n,
                obs::metrics::LATENCY_BOUNDS_US,
            ),
            decision_candidates: obs::metrics::histogram(
                "core.decision.candidates",
                n,
                obs::metrics::COUNT_BOUNDS,
            ),
            wire_encoded: obs::metrics::counter("core.wire.encoded", n),
            wire_images_encoded: obs::metrics::counter("core.wire.images_encoded", n),
            wire_decoded: obs::metrics::counter("core.wire.decoded", n),
            wire_bytes_decoded: obs::metrics::counter("core.wire.bytes_decoded", n),
        }
    }
}

/// Update-group packing: the wire images one fan-out has encoded so
/// far, keyed by the frame's prefix and plane plus the identity of the
/// shared path set. It lives on the stack of the fan-out that creates
/// the sharing and is handed down to [`Chassis::do_send`], so every
/// member sent the same `Arc<PathSet>` is sent the same bytes and the
/// set is encoded once. Nothing outlives the fan-out: an MRAI-deferred
/// copy is encoded when it is flushed.
pub(crate) type Images = Vec<(Arc<PathSet>, WireFrame)>;

/// One session's MRAI pacer, keyed by (plane, prefix). A deferred
/// update is kept as its path set alone, [`Mrai::ENTRY_BYTES`] = 24
/// bytes with its key, and becomes a message again when it is flushed.
pub(crate) type Pacer = Mrai<(Plane, Ipv4Prefix), Arc<PathSet>>;

/// The infrastructure shared by every role of one router: identity and
/// spec, the prefix index every full table is a column over, the
/// per-peer-group Adj-RIB-Out, the Loc-RIB, update accounting, MRAI
/// pacing, and the configuration that survives a crash-restart
/// (transition accept-set, runtime AP reassignments).
///
/// Roles receive `&mut Chassis` in every call that mutates; it is the
/// only mutable state they share.
pub struct Chassis {
    pub(crate) id: RouterId,
    pub(crate) spec: Arc<NetworkSpec>,
    /// Adj-RIB-Out, one copy per peer group (paper Appendix A
    /// accounting). Shared: each role writes its own group ids.
    pub(crate) out: AdjRibOut,
    /// The router's one prefix index: prefix → dense id, resolved once
    /// per received update. The Loc-RIB below and every role's
    /// Adj-RIB-In are columns over it. Grow-only; dropped, with every
    /// column, on restart.
    pub(crate) index: PrefixIndex,
    /// Selected routes, each with the count of times the selection
    /// changed (oscillation diagnostics).
    pub(crate) loc_rib: LocColumn<Selected>,
    /// The empty path set, shared by every advertisement of nothing.
    pub(crate) no_paths: Arc<PathSet>,
    /// Update accounting.
    pub(crate) counters: UpdateCounters,
    /// Per-peer MRAI pacing.
    pub(crate) mrai: BTreeMap<RouterId, Pacer>,
    /// Transition (§2.4): APs for which ABRR routes are accepted.
    pub(crate) accept_abrr: BTreeSet<ApId>,
    /// Runtime AP→ARR reassignments (paper §2.2). Overrides the spec's
    /// static assignment; treated as configuration, so it survives a
    /// crash-restart.
    pub(crate) arr_override: BTreeMap<ApId, Vec<RouterId>>,
    /// This router's update-processing delay
    /// ([`NetworkSpec::proc_delay`]): fixed by its roles, so worked out
    /// once here rather than per received update.
    pub(crate) proc_delay: netsim::Time,
    /// Lazily-built obs registry handles (see [`ObsHandles`]).
    obs: Option<ObsHandles>,
}

impl Chassis {
    pub(crate) fn new(id: RouterId, spec: Arc<NetworkSpec>) -> Chassis {
        let accept_abrr = match spec.mode {
            Mode::Abrr => spec
                .ap_map
                .as_ref()
                .map(|m| m.partitions().iter().map(|p| p.id).collect())
                .unwrap_or_default(),
            _ => BTreeSet::new(),
        };
        Chassis {
            id,
            proc_delay: spec.proc_delay(id),
            spec,
            out: AdjRibOut::new(),
            index: PrefixIndex::new(),
            loc_rib: LocColumn::new(),
            no_paths: Arc::default(),
            counters: UpdateCounters::default(),
            mrai: BTreeMap::new(),
            accept_abrr,
            arr_override: BTreeMap::new(),
            obs: None,
        }
    }

    /// The obs handles when metrics are enabled (built on first use).
    #[inline]
    pub(crate) fn obs(&mut self) -> Option<&ObsHandles> {
        if !obs::metrics::enabled() {
            return None;
        }
        if self.obs.is_none() {
            self.obs = Some(ObsHandles::new(self.id));
        }
        self.obs.as_ref()
    }

    /// The ARRs currently responsible for `ap`: a runtime reassignment
    /// overrides the spec's static assignment.
    pub(crate) fn arrs_of(&self, ap: ApId) -> &[RouterId] {
        self.arr_override
            .get(&ap)
            .map(|v| v.as_slice())
            .unwrap_or_else(|| self.spec.arrs_of(ap))
    }

    /// Whether `r` is (currently) an ARR for an AP covering `prefix`.
    pub(crate) fn is_arr_for_prefix(&self, r: RouterId, prefix: &Ipv4Prefix) -> bool {
        self.aps_covering(prefix)
            .any(|ap| self.arrs_of(ap).contains(&r))
    }

    pub(crate) fn ap_covers(&self, ap: ApId, prefix: &Ipv4Prefix) -> bool {
        self.spec
            .ap_map
            .as_ref()
            .and_then(|m| m.partition(ap))
            .map(|p| p.covers(prefix))
            .unwrap_or(false)
    }

    /// The address ranges of partition `ap` (empty when no AP map or
    /// unknown id) — the keys for range queries over the RIBs.
    pub(crate) fn ap_ranges(&self, ap: ApId) -> &[bgp_types::AddressRange] {
        self.spec
            .ap_map
            .as_ref()
            .and_then(|m| m.partition(ap))
            .map_or(&[], |p| &p.ranges)
    }

    /// The APs covering `prefix`, in id order (none without an AP map).
    pub(crate) fn aps_covering(&self, prefix: &Ipv4Prefix) -> impl Iterator<Item = ApId> + '_ {
        self.spec.aps_covering(prefix)
    }

    /// Transition rule (§2.4): ABRR routes for `prefix` are accepted
    /// when every AP covering it has been cut over (a spanning prefix
    /// flips only when all its APs have).
    pub(crate) fn use_abrr_for(&self, prefix: &Ipv4Prefix) -> bool {
        match self.spec.mode {
            Mode::Abrr => true,
            Mode::Transition => {
                let mut aps = self.aps_covering(prefix).peekable();
                aps.peek().is_some() && aps.all(|ap| self.accept_abrr.contains(&ap))
            }
            _ => false,
        }
    }

    /// The IGP metric from this router to a next hop. Resolves the
    /// router's own SPF row here, once per decision, so each candidate
    /// costs one lookup in it.
    pub(crate) fn igp_metric_fn(&self) -> impl Fn(NextHop) -> Option<u32> + '_ {
        let row = self.spec.oracle.tree(self.id);
        move |nh: NextHop| row?.distance(RouterId(nh.0))
    }

    /// Picks the best of `routes` and updates the Loc-RIB. Returns the
    /// winner (its attributes cloned out) if any, and whether the
    /// selection changed.
    pub(crate) fn select<'a>(
        &mut self,
        prefix: Ipv4Prefix,
        id: PrefixId,
        routes: impl Iterator<Item = RouteRef<'a>> + Clone,
    ) -> (Option<Selected>, bool) {
        let igp = self.igp_metric_fn();
        let best = best_path_of(routes.clone(), &self.spec.decision, &igp);
        drop(igp);
        let selected = best.map(|i| Selected::from(route_at(&routes, i)));
        let changed = self.loc_rib.set(id, selected.clone());
        if changed {
            obs::event!(Core, Debug, "core.select", node = self.id.0,
                "prefix" => format!("{prefix:?}"),
                "cands" => routes.count(),
                "some" => selected.is_some());
        }
        (selected, changed)
    }

    // ------------------------------------------------------------------
    // Transmission with MRAI
    // ------------------------------------------------------------------

    /// Offers `msg` to `peer`'s MRAI pacer and sends it if it may go
    /// now. `images` is the enclosing fan-out's packing state, `None`
    /// for a send that is not part of one.
    pub(crate) fn transmit(
        &mut self,
        ctx: &mut Ctx<SessionMsg>,
        peer: RouterId,
        msg: BgpMsg,
        images: Option<&mut Images>,
    ) {
        if peer == self.id {
            return;
        }
        let interval = self.spec.mrai_us;
        let mrai = self.mrai.entry(peer).or_insert_with(|| Mrai::new(interval));
        let now = ctx.now();
        match mrai.offer(now, (msg.plane, msg.prefix), msg.paths) {
            MraiVerdict::SendNow(paths) => self.do_send(ctx, peer, BgpMsg { paths, ..msg }, images),
            MraiVerdict::Deferred {
                flush_at,
                need_timer,
            } => {
                if let Some(h) = self.obs() {
                    h.mrai_defer_us.record(flush_at.saturating_sub(now));
                }
                if need_timer {
                    ctx.set_timer(flush_at, peer.0 as u64);
                }
            }
        }
    }

    /// Single egress point for every iBGP update, in every wire mode.
    /// Accounting and the `core.send` trace event are identical across
    /// modes — that invariance is what lets the wire-mode differential
    /// tests demand byte-identical fingerprints and obs traces.
    pub(crate) fn do_send(
        &mut self,
        ctx: &mut Ctx<SessionMsg>,
        peer: RouterId,
        msg: BgpMsg,
        images: Option<&mut Images>,
    ) {
        self.counters.transmitted += 1;
        if self.spec.account_bytes {
            self.counters.bytes_transmitted += msg.wire_bytes(true) as u64;
        }
        obs::event!(Core, Trace, "core.send", node = self.id.0,
            "peer" => peer.0, "prefix" => format!("{:?}", msg.prefix));
        match self.spec.wire_mode {
            netsim::WireMode::Off => ctx.send(peer, SessionMsg::Struct(msg)),
            netsim::WireMode::Bytes => {
                let frame = self.image(peer, msg, images);
                if let Some(h) = self.obs() {
                    h.wire_encoded.inc();
                }
                obs::pcap::record(ctx.now(), self.id.0, peer.0, &frame.bytes);
                ctx.send(peer, SessionMsg::Wire(frame));
            }
        }
    }

    /// The wire image of `msg`: the one this fan-out already encoded
    /// for the same path set, else a fresh encode that `images`
    /// remembers for the members still to come.
    fn image(&mut self, peer: RouterId, msg: BgpMsg, images: Option<&mut Images>) -> WireFrame {
        let packed = images.as_deref().and_then(|imgs| {
            imgs.iter().find(|(paths, f)| {
                Arc::ptr_eq(paths, &msg.paths) && f.prefix == msg.prefix && f.plane == msg.plane
            })
        });
        if let Some((_, frame)) = packed {
            return frame.clone();
        }
        let frame = wire::encode_frame(&msg).unwrap_or_else(|e| {
            obs::event!(Wire, Error, "wire.encode_fail", node = self.id.0,
                "peer" => peer.0, "prefix" => format!("{:?}", msg.prefix),
                "err" => format!("{e}"));
            // Invariant: every update the protocol builds encodes, at
            // the length `wire_bytes` states; an encoder error is a
            // bug to stop on.
            panic!(
                "wire encode failed at node {} -> {}: {e}",
                self.id.0, peer.0
            );
        });
        if let Some(h) = self.obs() {
            h.wire_images_encoded.inc();
        }
        if let Some(imgs) = images {
            imgs.push((msg.paths, frame.clone()));
        }
        frame
    }

    /// Writes `full` into RIB-Out `g` for `prefix`; on change, counts a
    /// generation and transmits each member its *effective* set: the
    /// group set minus routes that originated at the member, and empty
    /// for a member matched by `suppress` (the Table 1 "not returned to
    /// sender" exception). A member whose effective set is empty still
    /// receives the (possibly redundant) withdrawal — it may hold a
    /// previously advertised route that this change retracts; receivers
    /// deduplicate via replace-set change detection.
    pub(crate) fn advertise_group(
        &mut self,
        ctx: &mut Ctx<SessionMsg>,
        g: u32,
        prefix: Ipv4Prefix,
        plane: Plane,
        full: Arc<PathSet>,
        suppress: impl Fn(RouterId) -> bool,
    ) {
        if !self.out.set_paths(g, prefix, &full[..]) {
            return;
        }
        self.counters.generated += 1;
        let mut images = Images::new();
        for &m in self.out.members_shared(g).iter() {
            if m == self.id {
                // Internal logical pass: the ARR function of this very
                // router (only arises for client→own-ARR advertisement,
                // handled by the caller).
                continue;
            }
            // Only a member that originated one of the paths needs a
            // filtered copy; everyone else shares the one full set.
            let effective: Arc<PathSet> = if suppress(m) {
                self.no_paths.clone()
            } else {
                match without(&full, |a| originated_by(a, m)) {
                    Cow::Borrowed(_) => full.clone(),
                    Cow::Owned(rest) => Arc::new(rest),
                }
            };
            self.transmit(
                ctx,
                m,
                BgpMsg {
                    prefix,
                    paths: effective,
                    plane,
                },
                Some(&mut images),
            );
        }
    }

    /// Re-sends our current Adj-RIB-Out toward a peer whose session
    /// just re-established (BGP full-table re-advertisement). Walks the
    /// peer-group-deduplicated export state through a per-session
    /// cursor ([`AdjRibOut::export_walk`]): nothing is copied per
    /// session, and the (group id, prefix) walk order is the
    /// deterministic on-the-wire order.
    pub(crate) fn resync_peer(&mut self, ctx: &mut Ctx<SessionMsg>, peer: RouterId) {
        let mut to_send: Vec<BgpMsg> = Vec::new();
        for (g, prefix, set) in self.out.export_walk(peer) {
            let effective = without(set, |a| originated_by(a, peer));
            if !effective.is_empty() {
                to_send.push(BgpMsg {
                    prefix,
                    paths: Arc::new(effective.into_owned()),
                    plane: crate::node::group::plane_of(g),
                });
            }
        }
        for msg in to_send {
            self.transmit(ctx, peer, msg, None);
        }
    }

    /// Crash-restart: runtime protocol state is lost; configuration
    /// (roles, peer groups, reassignments) and cumulative device
    /// counters survive.
    pub(crate) fn on_restart(&mut self) {
        self.out.clear_routes();
        self.index = PrefixIndex::new();
        self.loc_rib = LocColumn::new();
        self.mrai.clear();
    }
}

/// An incoming iBGP replace-set, pre-classified by the shell, plus the
/// cross-role facts the receiving role's storage policy needs.
pub struct Rx {
    /// The advertising peer.
    pub(crate) from: RouterId,
    /// The session plane the update arrived on.
    pub(crate) plane: Plane,
    /// The destination prefix, as its id in the router's index
    /// (`Chassis::index`): the row of every column this update touches.
    pub(crate) id: PrefixId,
    /// The complete new path set (empty = withdraw), shared with every
    /// other receiver of the fan-out that sent it: roles read it and
    /// copy only what they store.
    pub(crate) paths: Arc<PathSet>,
    /// Whether this router has *ever* learned `prefix` over eBGP
    /// (border-role stickiness). The client role stores the
    /// full received set for such prefixes instead of its reduced best
    /// — a reduced set could drop exactly the route that MED-eliminates
    /// one of our own routes (see [`ClientRole`]).
    pub(crate) own_ever: bool,
}

/// The route at position `i` of `routes`: a position a decision over
/// the same sequence returned.
pub(crate) fn route_at<'a>(
    routes: &(impl Iterator<Item = RouteRef<'a>> + Clone),
    i: usize,
) -> RouteRef<'a> {
    let route = routes.clone().nth(i);
    // Invariant: `i` came from a decision over this very sequence.
    route.expect("a decision's position lies in its sequence")
}

/// Stored iBGP routes as borrowed decision inputs, in stored order.
pub(crate) fn ibgp_routes(entries: &[RibInEntry]) -> impl Iterator<Item = RouteRef<'_>> + Clone {
    entries
        .iter()
        .map(|(peer, _, attrs)| RouteRef::ibgp(*peer, attrs))
}

/// The per-recompute context a role advertises from. Built once by the
/// shell after the decision, then handed to each advertising role.
pub struct AdvertiseEnv<'a> {
    /// The prefix's id in the router's index.
    pub(crate) id: PrefixId,
    /// The shell's new selection for the prefix (post-decision).
    pub(crate) sel: Option<&'a Selected>,
    /// Whether the selection changed in this recompute.
    pub(crate) sel_changed: bool,
    /// The prefix's eBGP routes at this router, the seed of every
    /// role's plane view; the TRR rebuilds its TBRR-plane candidate set
    /// from them.
    pub(crate) exits: Exits<'a>,
    /// The router's own ARR function, when the advertising role may
    /// hand routes to it internally (§2.1's "logical pass"). `None`
    /// when the ARR itself (or a role with no hand-off) advertises.
    pub(crate) arr: Option<&'a mut ArrRole>,
}

/// What the shell reads from every protocol function of a router
/// (paper Table 1 column) alike, through `BgpNode::roles()`: RIB
/// accounting and the Address-Partition range query.
///
/// Input, decision and advertisement are not here. Each role has the
/// ones it takes part in as inherent methods — `absorb`, `routes` (the
/// border's `exits`), `advertise`, `drop_peer`, `on_restart` — and
/// the shell calls them role by role, in the fixed order that reaches
/// tie-breaking and MRAI pacing.
pub trait Role {
    /// Adj-RIB-In entries held by this role (the paper's RIB-In
    /// accounting).
    fn rib_in_entries(&self) -> usize;

    /// The prefixes this role holds state for that overlap the
    /// inclusive address range `[range_start, range_end]`, in prefix
    /// order. The incremental path for Address-Partition choreography:
    /// `index`'s (the router's) sorted overlap, filtered on the role's
    /// columns — one scan of the index, a sort of the overlap.
    fn known_prefixes_in(
        &self,
        index: &PrefixIndex,
        range_start: u32,
        range_end: u32,
    ) -> Vec<Ipv4Prefix>;

    /// Slots across this role's storage — the `core.store.slots`
    /// gauge. A column counts its rows; a private table, its entries.
    fn slots(&self) -> usize;

    /// Heap bytes across this role's storage — the
    /// `core.store.*_bytes` gauges. A private table's buckets, values
    /// inline, are [`HeapBytes::index`].
    fn heap_bytes(&self) -> HeapBytes;
}

/// A path set minus the routes `reject` matches (loop prevention, "not
/// returned to the originator"). Nearly every set has none, and is then
/// read where it lies: the copy is made only when something is dropped.
pub(crate) fn without(
    paths: &[(PathId, Arc<PathAttributes>)],
    reject: impl Fn(&PathAttributes) -> bool,
) -> Cow<'_, [(PathId, Arc<PathAttributes>)]> {
    if paths.iter().any(|(_, a)| reject(a)) {
        Cow::Owned(paths.iter().filter(|(_, a)| !reject(a)).cloned().collect())
    } else {
        Cow::Borrowed(paths)
    }
}

/// Whether `a` was injected into iBGP by router `r`.
pub(crate) fn originated_by(a: &PathAttributes, r: RouterId) -> bool {
    a.originator_id.map(|o| o.0) == Some(r.0)
}

/// Prepares an attribute set for iBGP injection: LOCAL_PREF defaulted.
/// Shared by the client (own-best injection) and TRR (reflection)
/// roles.
pub(crate) fn with_default_local_pref(attrs: &Arc<PathAttributes>) -> Arc<PathAttributes> {
    if attrs.local_pref.is_some() {
        return attrs.clone();
    }
    let mut a = (**attrs).clone();
    a.local_pref = Some(bgp_types::LocalPref::DEFAULT);
    bgp_types::intern(a)
}

/// Strategies shared by the roles' property tests.
#[cfg(test)]
pub(crate) mod strategies {
    use bgp_types::{
        AsPath, Asn, ClusterId, Community, ExtCommunity, LocalPref, Med, NextHop, Origin,
        OriginatorId, PathAttributes, SegmentKind, TailValue,
    };
    use proptest::prelude::*;

    /// Attribute sets over small domains, so two draws often agree on
    /// most fields: AS_SET and AS_SEQUENCE segments, LOCAL_PREF, MED and
    /// ORIGINATOR_ID each present or absent, empty and non-empty
    /// communities, ext communities and CLUSTER_LISTs.
    pub(crate) fn arb_attrs() -> impl Strategy<Value = PathAttributes> {
        let segment = (any::<bool>(), prop::collection::vec(1u32..4, 0..3));
        let ext = prop::sample::select(vec![ExtCommunity([0; 8]), ExtCommunity::ABRR_REFLECTED]);
        (
            prop::collection::vec(segment, 0..3),
            prop::sample::select(vec![Origin::Igp, Origin::Egp, Origin::Incomplete]),
            1u32..3,
            prop::option::of(0u32..2),
            prop::option::of(prop::sample::select(vec![LocalPref::DEFAULT.0, 200])),
            prop::collection::vec(0u32..2, 0..2),
            prop::collection::vec(ext, 0..2),
            prop::option::of(1u32..4),
            prop::collection::vec(1u32..4, 0..3),
        )
            .prop_map(|(segs, origin, nh, med, lp, comms, ext, oid, clist)| {
                let mut path = AsPath::empty();
                for (is_set, asns) in segs {
                    let kind = if is_set {
                        SegmentKind::Set
                    } else {
                        SegmentKind::Sequence
                    };
                    path.push_segment(kind, asns.into_iter().map(Asn));
                }
                let mut a = PathAttributes::ebgp(path, NextHop(nh));
                a.origin = origin;
                a.med = med.map(Med);
                a.local_pref = lp.map(LocalPref);
                a.originator_id = oid.map(OriginatorId);
                a.with_lists(
                    a.as_path(),
                    comms.into_iter().map(Community),
                    ext,
                    clist.into_iter().map(ClusterId),
                )
            })
    }

    /// Sets whose tail words are `a`'s, word for word, but with the
    /// boundary between the ext communities and the CLUSTER_LIST moved:
    /// one cluster id, with the last community's word in front of the
    /// ext words to keep them paired, moved into the ext communities;
    /// two cluster ids moved into one ext community; and the last ext
    /// community moved into the CLUSTER_LIST as two ids. Each that `a`'s
    /// lists are long enough for. A check that compared the tail without
    /// the list boundaries would take any of them for `a`.
    pub(crate) fn boundary_moved(a: &PathAttributes) -> Vec<PathAttributes> {
        let comms: Vec<u32> = a.communities().iter().map(|c| c.0).collect();
        let mut ext = Vec::new();
        a.ext_communities()
            .iter()
            .for_each(|e| e.push_words(&mut ext));
        let clusters: Vec<u32> = a.cluster_list().iter().map(|c| c.0).collect();
        let build = |comms: &[u32], ext: &[u32], clusters: &[u32]| {
            a.with_lists(
                a.as_path(),
                comms.iter().map(|&c| Community(c)),
                ext.chunks_exact(2).map(ExtCommunity::from_words),
                clusters.iter().map(|&c| ClusterId(c)),
            )
        };
        let mut out = Vec::new();
        if let (Some((last, rest)), Some((first, tail))) =
            (comms.split_last(), clusters.split_first())
        {
            let moved: Vec<u32> = [*last].iter().chain(&ext).chain([first]).copied().collect();
            out.push(build(rest, &moved, tail));
        }
        if clusters.len() >= 2 {
            let moved: Vec<u32> = ext.iter().chain(&clusters[..2]).copied().collect();
            out.push(build(&comms, &moved, &clusters[2..]));
        }
        if ext.len() >= 2 {
            let (kept, last) = ext.split_at(ext.len() - 2);
            let moved: Vec<u32> = last.iter().chain(&clusters).copied().collect();
            out.push(build(&comms, kept, &moved));
        }
        out
    }
}
