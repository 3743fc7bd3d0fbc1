//! The protocol shell: one [`BgpNode`] per router, hosting the role
//! engines of [`crate::roles`] over [`netsim`].
//!
//! A single node type hosts all roles because the paper's roles are
//! *functions within a router* (§2.1): a data-plane router is a client
//! for every AP; any router may additionally be an ARR for some APs or
//! a TRR for some clusters; internal hand-off between a router's client
//! and ARR functions is a logical pass, not an iBGP message.
//!
//! The shell owns exactly three jobs — everything else lives in a role:
//!
//! 1. **Classification**: map an incoming update's (sender, plane,
//!    prefix) to the role that must absorb it (`BgpNode::classify`).
//! 2. **Decision orchestration**: gather candidates from every role in
//!    a fixed order (border → client → ARR → TRR), run the decision on
//!    the shared [`Chassis`], and drive each role's advertisement step.
//! 3. **Lifecycle**: input batching, session up/down/restart fan-out,
//!    and the §2.2 AP-reassignment choreography across roles.

use crate::index::SharedIndex;
use crate::msg::{BgpMsg, ExternalEvent, Plane, SessionMsg};
use crate::roles::{
    route_at, AdvertiseEnv, ArrRole, BorderRole, Chassis, ClientRole, Role, Rx, TrrRole,
};
use crate::spec::{Mode, NetworkSpec};
use crate::wire;
use crate::UpdateCounters;
use bgp_rib::{best_path_of, HeapBytes, PrefixId, PrefixIndex, RibInEntry, RouteRef};
use bgp_types::{ApId, Ipv4Prefix, PathAttributes, RouteSource, RouterId};
use netsim::{Ctx, Protocol};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Peer-group ids used by every node. One RIB-Out copy exists per group
/// (paper Appendix A accounting).
pub mod group {
    use crate::msg::Plane;

    /// Full-mesh advertisement group (all other routers).
    pub const MESH: u32 = 0;
    /// Ids reserved for each per-AP family below. `base + ap` stays
    /// inside its family — and the families stay disjoint — only for
    /// AP ids below this; `NetworkSpec::validate` rejects larger ones.
    pub const AP_STRIDE: u32 = 1000;
    /// ABRR client → the ARRs of one AP: `CLIENT_TO_ARRS + ap`.
    pub const CLIENT_TO_ARRS: u32 = 1000;
    /// ARR → all clients, for one AP: `ARR_TO_CLIENTS + ap`.
    pub const ARR_TO_CLIENTS: u32 = CLIENT_TO_ARRS + AP_STRIDE;
    /// TBRR client → its TRRs.
    pub const CLIENT_TO_TRRS: u32 = ARR_TO_CLIENTS + AP_STRIDE;
    /// TRR → its clients.
    pub const TRR_TO_CLIENTS: u32 = 4000;
    /// TRR → other TRRs.
    pub const TRR_TO_PEERS: u32 = 4001;

    /// The plane a group's updates travel on.
    pub fn plane_of(g: u32) -> Plane {
        if g == MESH {
            Plane::Mesh
        } else if (CLIENT_TO_ARRS..ARR_TO_CLIENTS + AP_STRIDE).contains(&g) {
            Plane::Abrr
        } else {
            Plane::Tbrr
        }
    }
}

/// The route a node has selected for a prefix (Loc-RIB value).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Selected {
    /// The winning route's attributes.
    pub attrs: Arc<PathAttributes>,
    /// Where it was learned.
    pub source: RouteSource,
    /// The advertising neighbor's id.
    pub neighbor_id: u32,
}

impl From<RouteRef<'_>> for Selected {
    /// The decision's winner, its attributes cloned out.
    fn from(route: RouteRef<'_>) -> Selected {
        Selected {
            attrs: route.attrs.clone(),
            source: route.source,
            neighbor_id: route.neighbor_id,
        }
    }
}

impl Selected {
    /// The exit (border) router this selection forwards towards. Under
    /// next-hop-self, NEXT_HOP values name routers.
    pub fn exit_router(&self) -> RouterId {
        RouterId(self.attrs.next_hop.0)
    }
}

/// The node's dirty-prefix worklist: every state-changing entry point
/// (batch absorption, peer purge) records the prefixes whose role
/// state changed, and one drain pass re-runs the decision for each.
///
/// Invariant: a prefix is on the worklist iff some role's stored state
/// for it changed since the last drain; draining runs
/// `ArrRole::recompute` once per ARR-dirty prefix and the shell
/// decision once per dirty prefix (ARR-dirty prefixes are re-decided
/// after their managed set is rebuilt, mirroring the monolith order).
/// Nothing outside the worklist is ever re-decided — whole-prefix-space
/// passes exist nowhere in the shell; even the §2.2 AP choreography
/// seeds the worklist from range queries over the index
/// ([`Role::known_prefixes_in`]), re-deciding only the covered prefixes.
///
/// An entry carries the prefix's id in the network's index beside it, so
/// the drain makes no index probe; the prefix comes first, which keeps
/// the drain in prefix order whatever order the ids were handed out in.
#[derive(Default)]
struct Worklist {
    /// Prefixes whose ARR-role managed table changed.
    arr: BTreeSet<(Ipv4Prefix, PrefixId)>,
    /// Prefixes where another role's state changed.
    other: BTreeSet<(Ipv4Prefix, PrefixId)>,
}

/// How an incoming message is interpreted, per roles and mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InputKind {
    /// Client-role input (from an ARR, a TRR, or a mesh peer).
    Client,
    /// ARR-role input (from a client advertising into our AP).
    Arr,
    /// TRR-role input (from a cluster client or another TRR).
    Trr,
    /// No role matches — dropped (misconfiguration).
    Unexpected,
}

/// A BGP router in the simulated AS: the shared [`Chassis`] plus one
/// engine per role. See module docs.
pub struct BgpNode {
    /// Shared infrastructure: spec, RIB-Out, Loc-RIB, counters, MRAI.
    ch: Chassis,
    /// eBGP ingestion, own-route stickiness.
    pub(crate) border: BorderRole,
    /// Per-plane client Adj-RIB-Ins + §3.4 storage policy.
    client: ClientRole,
    /// AP-managed routes, best-AS-level reflection.
    arr: ArrRole,
    /// Cluster reflection (RFC 4456).
    trr: TrrRole,
    /// Input work queue (update batching; see
    /// [`NetworkSpec::proc_delay_base_us`]). Empty when the processing
    /// delay is zero.
    inbox: Vec<(RouterId, BgpMsg)>,
    /// Dirty-prefix worklist (see [`Worklist`]); empty between drains.
    dirty: Worklist,
    /// Bytes-mode ingress: the buffers this router parses every burst
    /// it receives into (unused with structs).
    ingress: wire::Decoder,
}

impl BgpNode {
    /// Creates a node over its network's prefix index and materializes
    /// its peer groups from the spec.
    pub fn new(id: RouterId, spec: Arc<NetworkSpec>, index: SharedIndex) -> Self {
        check_open(&spec, id);
        let mut ch = Chassis::new(id, spec.clone(), index);
        let border = BorderRole::new();
        let client = ClientRole::new(id, &spec);
        let arr = ArrRole::new(id, &spec);
        let trr = TrrRole::new(id, &spec);
        client.install_groups(&mut ch);
        arr.install_groups(&mut ch);
        trr.install_groups(&mut ch);
        BgpNode {
            ch,
            border,
            client,
            arr,
            trr,
            inbox: Vec::new(),
            dirty: Worklist::default(),
            ingress: wire::Decoder::default(),
        }
    }

    /// Timer token for the input work queue (peer MRAI tokens are
    /// 32-bit router ids, so this cannot collide).
    const INBOX_TOKEN: u64 = u64::MAX;

    /// The role set in candidate-gathering order (border exits first,
    /// then the client planes, then the reflector tables) — the order
    /// reaches the decision process's tie-breaking, so it is fixed.
    fn roles(&self) -> [&dyn Role; 4] {
        [&self.border, &self.client, &self.arr, &self.trr]
    }

    /// Shard-affinity hint for prefix-plane work: the id of the Address
    /// Partition covering `prefix` (ABRR's own interaction-freedom key),
    /// falling back to the prefix's first address when no AP map is
    /// configured (TBRR/full-mesh modes) so hints still spread.
    fn shard_hint(&self, prefix: &Ipv4Prefix) -> u64 {
        self.ch
            .spec
            .ap_map
            .as_ref()
            .and_then(|m| m.partitions().iter().find(|p| p.covers(prefix)))
            .map(|p| p.id.0 as u64)
            .unwrap_or_else(|| prefix.first_addr() as u64)
    }

    /// This node's id.
    pub fn id(&self) -> RouterId {
        self.ch.id
    }

    /// Whether this node is an ARR for any AP.
    pub fn is_arr(&self) -> bool {
        !self.arr.aps().is_empty()
    }

    /// Whether this node is a TRR for any cluster.
    pub fn is_trr(&self) -> bool {
        !self.trr.clusters().is_empty()
    }

    /// Whether this node currently holds an eBGP route for `prefix` —
    /// i.e. whether it can act as the AS's exit for it (resilience
    /// auditors use this as ground-truth reachability).
    pub fn originates(&self, prefix: &Ipv4Prefix) -> bool {
        self.border.originates(prefix)
    }

    /// Update accounting so far.
    pub fn counters(&self) -> &UpdateCounters {
        &self.ch.counters
    }

    /// Total Adj-RIB-In entries (the paper's RIB-In metric): eBGP +
    /// client-role + ARR-role (managed) + TRR-role tables.
    pub fn rib_in_size(&self) -> usize {
        self.roles().iter().map(|r| r.rib_in_entries()).sum()
    }

    /// Total Adj-RIB-Out entries (one copy per peer group).
    pub fn rib_out_size(&self) -> usize {
        self.ch.out.num_entries()
    }

    /// The node's current selection for `prefix`.
    pub fn selected(&self, prefix: &Ipv4Prefix) -> Option<&Selected> {
        self.ch.loc_rib.get(self.ch.index.id(prefix)?)
    }

    /// Iterates all selections, in prefix order.
    pub fn selections(&self) -> impl Iterator<Item = (Ipv4Prefix, &Selected)> {
        let walk = |ix: &_| self.ch.loc_rib.iter(ix).map(|(p, s)| (*p, s)).collect();
        let selections: Vec<_> = self.ch.index.read(walk);
        selections.into_iter()
    }

    /// Number of selected prefixes.
    pub fn loc_rib_len(&self) -> usize {
        self.ch.loc_rib.len()
    }

    /// ARR-role (managed) Adj-RIB-In entries — the paper's
    /// S^m_RIB-In_ARR.
    pub fn arr_in_entries(&self) -> usize {
        self.arr.rib_in_entries()
    }

    /// Client-role Adj-RIB-In entries — for an ARR this is the paper's
    /// S^u_RIB-In_ARR (unmanaged routes).
    pub fn client_in_entries(&self) -> usize {
        self.client.rib_in_entries()
    }

    /// TRR-role Adj-RIB-In entries.
    pub fn trr_in_entries(&self) -> usize {
        self.trr.rib_in_entries()
    }

    /// eBGP Adj-RIB-In entries.
    pub fn ebgp_entries(&self) -> usize {
        self.border.ebgp_entries()
    }

    /// The client-role entries currently stored from `peer` for
    /// `prefix` (post-reduction; test/audit hook).
    pub fn client_paths_from(&self, peer: RouterId, prefix: &Ipv4Prefix) -> &[RibInEntry] {
        let id = self.ch.index.id(prefix);
        id.map_or(&[], |id| self.client.paths_from(peer, id))
    }

    /// How many times this node's selection for `prefix` has changed —
    /// the oscillation-diagnostic signal (a converged network's counts
    /// stop growing; an oscillating prefix's counts grow forever).
    pub fn selection_changes(&self, prefix: &Ipv4Prefix) -> u64 {
        let id = self.ch.index.id(prefix);
        id.map_or(0, |id| self.ch.loc_rib.changes(id) as u64)
    }

    /// Iterates per-prefix selection-change counts, in prefix order
    /// (one sorted walk of the network's prefix index).
    pub fn all_selection_changes(&self) -> impl Iterator<Item = (Ipv4Prefix, u64)> {
        let walk = |ix: &_| {
            let counts = self.ch.loc_rib.iter_changes(ix);
            counts.map(|(p, c)| (*p, c as u64)).collect()
        };
        let counts: Vec<_> = self.ch.index.read(walk);
        counts.into_iter()
    }

    /// §3.2/§3.4 extension accessor: the best pre-installed backup exit
    /// for `prefix` — the best stored route whose exit differs from the
    /// current selection. Available when
    /// [`NetworkSpec::clients_keep_backups`] is on (or at border routers
    /// holding full sets); enables fast re-route without an ARR round
    /// trip.
    pub fn backup_route(&self, prefix: &Ipv4Prefix) -> Option<Selected> {
        let id = self.ch.index.id(prefix)?;
        let primary = self.ch.loc_rib.get(id)?.exit_router();
        let routes = self.client.backup_candidates(id, primary);
        let igp = self.ch.igp_metric_fn();
        let best = best_path_of(routes.clone(), &self.ch.spec.decision, &igp)?;
        Some(route_at(&routes, best).into())
    }

    /// Publishes this node's per-role Adj-RIB-In occupancy (plus
    /// Loc-RIB and RIB-Out sizes) and its [`UpdateCounters`] totals as
    /// per-node gauges in the obs registry. No-op when metrics are
    /// disabled. Called at report time by the bench pipeline —
    /// deliberately not on the hot path: occupancy is a state snapshot,
    /// and the update counts already live in the always-on struct.
    pub fn record_obs_gauges(&self) {
        if !obs::metrics::enabled() {
            return;
        }
        let n = Some(self.ch.id.0);
        self.ch.counters.publish(n);
        let set = |name: &'static str, v: usize| {
            obs::metrics::gauge(name, n).set(v as u64);
        };
        set("core.rib_in.client", self.client_in_entries());
        set("core.rib_in.arr", self.arr_in_entries());
        set("core.rib_in.trr", self.trr_in_entries());
        set("core.rib_in.ebgp", self.ebgp_entries());
        set("core.loc_rib", self.loc_rib_len());
        set("core.rib_out", self.rib_out_size());
        for (name, v) in self.store_gauges() {
            set(name, v);
        }
        set("core.mrai.pending_bytes", self.mrai_pending_bytes());
    }

    /// Heap bytes of the MRAI pacers' pending buffers — the
    /// `core.mrai.pending_bytes` gauge. Not a table: a buffer holds
    /// only what its session's interval has deferred, and a flush
    /// hands it off whole.
    fn mrai_pending_bytes(&self) -> usize {
        self.ch.mrai.values().map(|m| m.heap_bytes()).sum()
    }

    /// The `core.store.*` gauges — storage internals of the tables:
    /// slots, which are the rows the columns hold (written to a sparse
    /// page, or any row of a dense one) plus the entries of the private
    /// tables; and the heap bytes of the hashed tables (a private
    /// table's values inline), the column row arrays and the path sets
    /// both own. Summed over *everything* this node keeps: each role's
    /// tables, the Loc-RIB column (whose rows also hold the
    /// selection-change counts) and the per-group RIB-Out. The
    /// network's one prefix index is counted at the network's lowest
    /// node id and nowhere else, so the fleet's sum (the report's
    /// `(all)` row) counts it exactly once; the columns over it report
    /// slots and paths only.
    /// Makes the memory story auditable, not just entry counts.
    fn store_gauges(&self) -> [(&'static str, usize); 4] {
        let ch = &self.ch;
        let index = if ch.spec.all_nodes().first() == Some(&ch.id) {
            ch.index.read(PrefixIndex::heap_bytes)
        } else {
            HeapBytes::default()
        };
        let tables = self
            .roles()
            .map(|role| (role.slots(), role.heap_bytes()))
            .into_iter()
            .chain([
                (0, index),
                (ch.loc_rib.slots(), ch.loc_rib.heap_bytes()),
                (ch.out.slots(), ch.out.heap_bytes()),
            ]);
        let (mut slots, mut bytes) = (0, HeapBytes::default());
        for (s, b) in tables {
            slots += s;
            bytes = bytes + b;
        }
        [
            ("core.store.slots", slots),
            ("core.store.index_bytes", bytes.index),
            ("core.store.slot_bytes", bytes.slots),
            ("core.store.path_bytes", bytes.paths),
        ]
    }

    /// The ARR-role entries currently stored from `peer` for `prefix`.
    pub fn arr_paths_from(&self, peer: RouterId, prefix: &Ipv4Prefix) -> &[RibInEntry] {
        let id = self.ch.index.id(prefix);
        id.map_or(&[], |id| self.arr.paths_from(peer, id))
    }

    // ------------------------------------------------------------------
    // Input classification
    // ------------------------------------------------------------------

    /// Interprets an incoming update: the plane tag models the separate
    /// BGP sessions a dual-stack (transition) router would run, and the
    /// role assignment *as this node believes it* decides whether the
    /// update is client-role, ARR-role or TRR-role input.
    fn classify(&self, from: RouterId, plane: Plane, prefix: &Ipv4Prefix) -> InputKind {
        match plane {
            Plane::Mesh => {
                if self.ch.spec.mode == Mode::FullMesh {
                    InputKind::Client
                } else {
                    InputKind::Unexpected
                }
            }
            Plane::Abrr => {
                if !self.ch.spec.mode.has_abrr() {
                    return InputKind::Unexpected;
                }
                if self.ch.is_arr_for_prefix(from, prefix) {
                    return InputKind::Client;
                }
                if self
                    .arr
                    .aps()
                    .iter()
                    .any(|ap| self.ch.ap_covers(*ap, prefix))
                {
                    return InputKind::Arr;
                }
                InputKind::Unexpected
            }
            Plane::Tbrr => {
                if !self.ch.spec.mode.has_tbrr() {
                    return InputKind::Unexpected;
                }
                if !self.trr.clusters().is_empty() {
                    return InputKind::Trr;
                }
                if self.client.my_trrs().contains(&from) {
                    return InputKind::Client;
                }
                InputKind::Unexpected
            }
        }
    }

    // ------------------------------------------------------------------
    // Unified recompute: decision + role advertisements
    // ------------------------------------------------------------------

    /// Resolves `prefix` in the network's index and recomputes it: the
    /// entry for an event that names a prefix and did not arrive through
    /// [`BgpNode::process_batch`].
    fn recompute_prefix(&mut self, ctx: &mut Ctx<SessionMsg>, prefix: Ipv4Prefix) {
        let id = self.ch.index.resolve(prefix);
        self.recompute(ctx, prefix, id);
    }

    fn recompute(&mut self, ctx: &mut Ctx<SessionMsg>, prefix: Ipv4Prefix, id: PrefixId) {
        // Candidate gather, fixed order: border exits, client planes,
        // ARR managed view, TRR table. Order reaches tie-breaking. Every
        // route is decided where it lies.
        let exits = self.border.exits(&prefix);
        let routes = exits
            .routes()
            .chain(self.client.routes(&self.ch, &prefix, id))
            .chain(self.arr.routes(&self.ch, &prefix, id))
            .chain(self.trr.routes(&self.ch, &prefix, id));
        if let Some(h) = self.ch.obs() {
            h.decision_candidates.record(routes.clone().count() as u64);
        }
        let (sel, sel_changed) = self.ch.select(prefix, id, routes);
        let mut env = AdvertiseEnv {
            id,
            sel: sel.as_ref(),
            sel_changed,
            exits,
            arr: Some(&mut self.arr),
        };
        // Border first (eBGP export accounting), then the client
        // function, then the TRR function — monolith advertisement
        // order, which MRAI pacing observes.
        self.border.advertise(&mut self.ch, &env);
        // Client-function advertisement (suppressed for TRR nodes in
        // TBRR mode: a TRR's eBGP/local routes flow via TRR rules).
        let is_pure_trr_plane = self.ch.spec.mode.has_tbrr() && !self.trr.clusters().is_empty();
        if !is_pure_trr_plane || self.ch.spec.mode.has_abrr() {
            self.client.advertise(&mut self.ch, ctx, prefix, &mut env);
        }
        // TRR-function advertisement from the TBRR plane.
        if is_pure_trr_plane {
            self.trr.advertise(&mut self.ch, ctx, prefix, &mut env);
        }
    }

    /// RFC 4271 §6 session teardown: flush pacing state and queued input
    /// from `peer`, drop everything learned from it (all roles), and
    /// re-run decisions for the affected prefixes. Does NOT resync the
    /// Adj-RIB-Out — that happens on re-establishment.
    fn purge_peer(&mut self, ctx: &mut Ctx<SessionMsg>, peer: RouterId) {
        self.ch.mrai.remove(&peer);
        self.inbox.retain(|(from, _)| *from != peer);
        self.ch.index.read(|ix| {
            self.dirty.other.extend(self.client.drop_peer(ix, peer));
            self.dirty.other.extend(self.trr.drop_peer(ix, peer));
            self.dirty.arr.extend(self.arr.drop_peer(ix, peer));
        });
        self.drain_dirty(ctx);
    }

    /// Drains the dirty-prefix worklist: one `ArrRole::recompute` per
    /// ARR-dirty prefix (rebuilds the managed set with
    /// `best_as_level`), then one shell decision per dirty
    /// prefix, in prefix order. Mirrors the monolith's ordering: a
    /// prefix dirty on both lists is re-decided after its managed
    /// rebuild.
    fn drain_dirty(&mut self, ctx: &mut Ctx<SessionMsg>) {
        let Worklist { arr, other } = std::mem::take(&mut self.dirty);
        for &(p, id) in &arr {
            self.arr.recompute(&mut self.ch, ctx, p, id);
        }
        for (p, id) in arr.into_iter().chain(other) {
            self.recompute(ctx, p, id);
        }
    }

    /// Runtime AP reassignment (paper §2.2): the ARRs of `ap` become
    /// `new_arrs`. Broadcast to every node at the same instant so the AS
    /// switches consistently; the new ARRs must already hold ARR
    /// sessions (ABRR wires every ARR to every node, so restricting
    /// reassignment targets to existing ARRs needs no new sessions).
    fn reassign_ap(&mut self, ctx: &mut Ctx<SessionMsg>, ap: ApId, new_arrs: Vec<RouterId>) {
        if !self.ch.spec.mode.has_abrr() {
            return;
        }
        let old_arrs = self.ch.arrs_of(ap).to_vec();
        if old_arrs == new_arrs {
            return;
        }
        self.ch.arr_override.insert(ap, new_arrs.clone());
        let was_arr = self.arr.aps().contains(&ap);
        let is_now_arr = new_arrs.contains(&self.ch.id);

        // Client side: routes reflected by ARRs that lost the AP are no
        // longer valid (their withdrawals would no longer classify), so
        // drop them proactively; then point the client→ARR group at the
        // new set, clearing stored state so the next recomputation
        // re-feeds the new ARRs in full.
        let mut todo: BTreeSet<Ipv4Prefix> = BTreeSet::new();
        for arr in old_arrs.iter().filter(|a| !new_arrs.contains(a)) {
            todo.extend(self.client.drop_from_arr(&self.ch, ap, *arr));
        }
        self.ch
            .out
            .reset_group(group::CLIENT_TO_ARRS + ap.0 as u32, new_arrs.clone());

        // ARR side: a losing ARR withdraws everything it reflected for
        // the AP and drops the role plus its managed routes; a gaining
        // ARR takes the role and opens an (empty) client group that
        // fills as clients re-advertise.
        if was_arr && !is_now_arr {
            self.arr.lose_ap(&mut self.ch, ctx, ap);
        }
        if !was_arr && is_now_arr {
            self.arr.gain_ap(&mut self.ch, ap, &new_arrs);
        }

        // Re-run every covered prefix: the client function re-feeds the
        // (possibly new) ARRs, and a gaining ARR reflects its managed
        // set as it arrives. Seeded by range queries over the AP's
        // address ranges: only covered prefixes are re-decided.
        todo.extend(self.prefixes_covered_by(ap));
        for p in todo {
            let id = self.ch.index.resolve(p);
            if is_now_arr {
                self.arr.recompute(&mut self.ch, ctx, p, id);
            }
            self.recompute(ctx, p, id);
        }
    }

    /// Every known prefix covered by `ap`, gathered incrementally: one
    /// range query per AP address range per role. Exact —
    /// `Partition::covers` is "overlaps any range", which is precisely
    /// the union of the per-range overlap queries.
    fn prefixes_covered_by(&self, ap: ApId) -> BTreeSet<Ipv4Prefix> {
        let mut out: BTreeSet<Ipv4Prefix> = BTreeSet::new();
        self.ch.index.read(|ix| {
            for r in self.ch.ap_ranges(ap) {
                for role in self.roles() {
                    out.extend(role.known_prefixes_in(ix, r.start(), r.end()));
                }
            }
        });
        out
    }
}

impl BgpNode {
    /// Applies a batch of received updates to the RIBs, then recomputes
    /// each affected prefix exactly once. This is the router's "work
    /// queue run": when several updates for one routing event are
    /// queued together (the common case at an ARR, §4.2), they produce
    /// one combined recomputation — and one combined outbound update.
    fn process_batch(
        &mut self,
        ctx: &mut Ctx<SessionMsg>,
        batch: impl IntoIterator<Item = (RouterId, BgpMsg)>,
    ) {
        for (from, msg) in batch {
            let BgpMsg {
                prefix,
                paths,
                plane,
            } = msg;
            let kind = self.classify(from, plane, &prefix);
            // The one index probe this update costs: every table below
            // is a column read at `id`.
            let id = self.ch.index.resolve(prefix);
            let rx = Rx {
                from,
                plane,
                id,
                paths,
                own_ever: self.border.own_ever_contains(&prefix),
            };
            match kind {
                InputKind::Client => {
                    if self.client.absorb(&mut self.ch, rx) {
                        self.dirty.other.insert((prefix, id));
                    }
                }
                InputKind::Arr => {
                    if self.arr.absorb(&mut self.ch, rx) {
                        self.dirty.arr.insert((prefix, id));
                    }
                }
                InputKind::Trr => {
                    if self.trr.absorb(&mut self.ch, rx) {
                        self.dirty.other.insert((prefix, id));
                    }
                }
                InputKind::Unexpected => {
                    // Misconfiguration: drop, but never loop.
                    self.ch.counters.loop_prevented += 1;
                }
            }
        }
        self.drain_dirty(ctx);
    }
}

/// The OPEN handshake oracle, run in bytes mode when a router is
/// configured and whenever one of its sessions re-establishes: the
/// codec must round-trip the OPEN this router sends (4-octet AS +
/// add-paths both ways) before any UPDATE can legally flow.
fn check_open(spec: &NetworkSpec, id: RouterId) {
    if spec.wire_mode != netsim::WireMode::Bytes {
        return;
    }
    if let Err(e) = wire::open_roundtrip(spec.asn.0, id) {
        obs::event!(Wire, Error, "wire.open_fail", node = id.0, "err" => format!("{e}"));
        // Invariant: the codec round-trips the OPEN every router sends;
        // a failure is a codec bug to stop on.
        panic!("wire OPEN oracle failed at node {}: {e}", id.0);
    }
}

impl Protocol for BgpNode {
    type Msg = SessionMsg;
    type External = ExternalEvent;

    fn on_message(&mut self, ctx: &mut Ctx<SessionMsg>, from: RouterId, msg: SessionMsg) {
        self.ch.counters.received += 1;
        // Byte-mode ingress: parse the session burst back into the
        // logical update before any protocol processing — a real
        // speaker parses off the TCP stream as bytes arrive.
        let msg = match msg {
            SessionMsg::Struct(m) => m,
            SessionMsg::Wire(frame) => match self.ingress.decode(&frame) {
                Ok(m) => {
                    if let Some(h) = self.ch.obs() {
                        h.wire_decoded.inc();
                        h.wire_bytes_decoded.add(frame.bytes.len() as u64);
                    }
                    m
                }
                Err(e) => {
                    obs::event!(Wire, Error, "wire.decode_fail", node = self.ch.id.0,
                        "peer" => from.0, "err" => format!("{e}"));
                    // Invariant: every burst was encoded by a router of
                    // this run, so a decode failure is a codec bug to
                    // stop on (a structured obs event first).
                    panic!(
                        "wire decode failed at node {} from {}: {e}",
                        self.ch.id.0, from.0
                    );
                }
            },
        };
        let delay = self.ch.proc_delay;
        if delay == 0 {
            self.process_batch(ctx, std::iter::once((from, msg)));
        } else {
            if self.inbox.is_empty() {
                ctx.set_timer(ctx.now() + delay, Self::INBOX_TOKEN);
            }
            self.inbox.push((from, msg));
        }
    }

    fn on_external(&mut self, ctx: &mut Ctx<SessionMsg>, ev: ExternalEvent) {
        match ev {
            ExternalEvent::EbgpAnnounce {
                prefix,
                peer_as,
                peer_addr,
                attrs,
            } => {
                self.border
                    .ebgp_announce(&mut self.ch, prefix, peer_as, peer_addr, attrs);
                self.recompute_prefix(ctx, prefix);
            }
            ExternalEvent::EbgpWithdraw { prefix, peer_addr } => {
                if self.border.ebgp_withdraw(&mut self.ch, prefix, peer_addr) {
                    self.recompute_prefix(ctx, prefix);
                }
            }
            ExternalEvent::ReassignAp { ap, arrs } => {
                self.reassign_ap(ctx, ap, arrs);
            }
            ExternalEvent::CutoverAp(ap) => {
                if self.ch.accept_abrr.insert(ap) {
                    // Re-evaluate every prefix the cutover AP covers —
                    // gathered by range query, nothing else re-decided.
                    for p in self.prefixes_covered_by(ap) {
                        self.recompute_prefix(ctx, p);
                    }
                }
            }
        }
    }

    fn on_session_down(&mut self, ctx: &mut Ctx<SessionMsg>, peer: RouterId) {
        self.purge_peer(ctx, peer);
    }

    fn on_session_up(&mut self, ctx: &mut Ctx<SessionMsg>, peer: RouterId) {
        // Re-establishment replays the OPEN handshake.
        check_open(&self.ch.spec, self.ch.id);
        // BGP re-advertises the full table on session establishment.
        self.ch.resync_peer(ctx, peer);
    }

    fn on_restart(&mut self, _ctx: &mut Ctx<SessionMsg>) {
        // Crash-restart with RIB loss: configuration (roles, peer
        // groups, AP reassignments)
        // survives; everything learned at runtime is gone. Counters are
        // cumulative device statistics and deliberately survive too.
        // The columns go (`ch` and the roles each clear theirs here, in
        // one step); the network's prefix index and its ids stay, as
        // every other router still uses them. An id handed out before
        // the restart names the same prefix after it and addresses an
        // empty row until the prefix is heard of again. Ids live nowhere
        // else between events — queued input and paced output name
        // prefixes.
        self.border.on_restart();
        self.client.on_restart();
        self.arr.on_restart();
        self.trr.on_restart();
        self.ch.on_restart();
        self.inbox.clear();
    }

    fn on_timer(&mut self, ctx: &mut Ctx<SessionMsg>, token: u64) {
        if token == Self::INBOX_TOKEN {
            let batch = std::mem::take(&mut self.inbox);
            self.process_batch(ctx, batch);
            return;
        }
        let peer = RouterId(token as u32);
        let Some(mrai) = self.ch.mrai.get_mut(&peer) else {
            return;
        };
        let batch = mrai.flush(ctx.now());
        if !batch.is_empty() {
            if let Some(h) = self.ch.obs() {
                h.mrai_batch.record(batch.len() as u64);
            }
            obs::event!(Core, Debug, "core.mrai.flush", node = self.ch.id.0,
                "peer" => peer.0, "n" => batch.len());
        }
        for ((plane, prefix), paths) in batch {
            let msg = BgpMsg {
                prefix,
                paths,
                plane,
            };
            self.ch.do_send(ctx, peer, msg, None);
        }
    }

    fn classify_external(&self, ev: &ExternalEvent) -> netsim::ExternalClass {
        match ev {
            // Prefix-plane: the handler touches exactly one prefix's
            // state, so it batches freely inside a sharded window.
            ExternalEvent::EbgpAnnounce { prefix, .. }
            | ExternalEvent::EbgpWithdraw { prefix, .. } => netsim::ExternalClass::Prefix {
                shard_hint: self.shard_hint(prefix),
            },
            // Session-plane: a reassignment rewrites peer groups and the
            // managed table for every prefix of the AP; a cutover
            // re-evaluates every covered prefix. Both cross-prefix — they
            // must fence.
            ExternalEvent::ReassignAp { .. } | ExternalEvent::CutoverAp(_) => {
                netsim::ExternalClass::Fence
            }
        }
    }

    fn msg_shard(&self, msg: &SessionMsg) -> u64 {
        // Both transports carry the prefix as session metadata, so the
        // shard key never requires parsing the byte image.
        self.shard_hint(msg.prefix())
    }

    fn timer_lead(&self) -> netsim::Time {
        // The promise backing multi-timestamp sharded windows: every
        // timer this node sets is at least this far in the future.
        // Inbox timers fire at `now + proc_delay` and are only set when
        // proc_delay > 0; MRAI flush timers are only set when the
        // pacer defers, which puts `flush_at` strictly after `now`
        // (integer µs, so at least now + 1). With neither configured
        // the node sets no timers at all.
        let pd = self.ch.proc_delay;
        let mut lead = netsim::Time::MAX;
        if pd > 0 {
            lead = lead.min(pd);
        }
        if self.ch.spec.mrai_us > 0 {
            lead = lead.min(1);
        }
        lead
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roles::Pacer;
    use bgp_types::{ApMap, AsPath, Asn, NextHop};

    fn feed(prefix: Ipv4Prefix, peer_as: u32, peer_addr: u32) -> ExternalEvent {
        ExternalEvent::EbgpAnnounce {
            prefix,
            peer_as: Asn(peer_as),
            peer_addr,
            attrs: Arc::new(
                PathAttributes::ebgp(AsPath::sequence([Asn(peer_as)]), NextHop(peer_addr))
                    .with_med(0),
            ),
        }
    }

    /// The small reference network (`examples/scenarios/small_reference.json`)
    /// under ABRR, run to quiescence: 3 PoPs × 3 routers, routers 1 and
    /// 4 the ARRs of the one AP, 10.0.0.0/8 fed at routers 3 and 6 and
    /// 192.168.0.0/16 at router 9, then `events`.
    fn small_reference(events: &[(netsim::Time, RouterId, ExternalEvent)]) -> netsim::Sim<BgpNode> {
        let mut sim = small_reference_sim(0, events);
        assert!(sim.run_to_quiescence().quiesced);
        sim
    }

    /// [`small_reference`] with an MRAI of `mrai_us`, not yet run.
    fn small_reference_sim(
        mrai_us: netsim::Time,
        events: &[(netsim::Time, RouterId, ExternalEvent)],
    ) -> netsim::Sim<BgpNode> {
        let view = igp::PopTopologyBuilder::new(3, 3).build();
        let mut spec = NetworkSpec::full_mesh(&view.topo, Asn(65000));
        spec.mode = Mode::Abrr;
        spec.mrai_us = mrai_us;
        spec.routers = view.routers();
        spec.ap_map = Some(ApMap::uniform(1));
        spec.arrs.insert(ApId(0), vec![RouterId(1), RouterId(4)]);
        let mut sim = crate::spec::build_sim(Arc::new(spec));
        let p1: Ipv4Prefix = "10.0.0.0/8".parse().unwrap();
        let p2: Ipv4Prefix = "192.168.0.0/16".parse().unwrap();
        for (router, prefix, peer_as, peer_addr) in [
            (3, p1, 7018, 9001),
            (6, p1, 3356, 9002),
            (9, p2, 7018, 9003),
        ] {
            sim.schedule_external(0, RouterId(router), feed(prefix, peer_as, peer_addr));
        }
        for (at, router, ev) in events {
            sim.schedule_external(*at, *router, ev.clone());
        }
        sim
    }

    /// Under network-wide ids a router pays for the rows it holds, not
    /// for the ids the network has handed out: with 2 048 ids over eight
    /// pages and 32 of them learned, scattered one per 64, each column
    /// holds its `k` rows, and its slot bytes stay within 40 bytes a row
    /// (the widest row) plus, per page it writes, a slot map and a
    /// chunk of slack (296 + 32 × 40 bytes, rounded up to 2 048) plus
    /// the list of pages (72 bytes an entry, at most twice the pages).
    /// A column as wide as the ids would take 80 KB.
    #[test]
    fn a_router_pays_for_its_rows_not_for_the_networks_ids() {
        let mut sim = small_reference_sim(0, &[]);
        let index = sim.node(RouterId(1)).ch.index.clone();
        let filler: Vec<Ipv4Prefix> = (0..2048u32)
            .map(|i| Ipv4Prefix::new(0x1400_0000 + (i << 8), 24))
            .collect();
        for p in &filler {
            index.resolve(*p);
        }
        for p in filler.iter().step_by(64) {
            sim.schedule_external(0, RouterId(9), feed(*p, 7018, 9003));
        }
        assert!(sim.run_to_quiescence().quiesced);
        let ids = index.read(PrefixIndex::len);
        let spanned = ids.div_ceil(256);
        assert_eq!(
            (ids, spanned),
            (2050, 9),
            "the filler, then the two reference prefixes"
        );
        for (id, node) in sim.nodes() {
            let roles = [&node.client as &dyn Role, &node.arr, &node.trr];
            let columns = roles
                .map(|role| (role.slots(), role.heap_bytes().slots))
                .into_iter()
                .chain([(node.ch.loc_rib.slots(), node.ch.loc_rib.heap_bytes().slots)]);
            for (rows, bytes) in columns {
                let bound = 40 * rows + 2048 * rows.min(spanned) + 72 * 2 * spanned;
                assert!(rows <= 34, "{id:?}: {rows} rows, 34 prefixes");
                assert!(bytes <= bound, "{id:?}: {bytes} slot bytes for {rows} rows");
                assert!(bytes < 40 * ids / 4, "{id:?}: {bytes} slot bytes");
            }
            assert!(
                node.ch.loc_rib.len() >= 32,
                "{id:?} selected the scattered prefixes"
            );
        }
    }

    /// The `core.store.*` gauges must cover everything a node owns, and
    /// the network's one index exactly once: at the lowest node id.
    #[test]
    fn store_gauges_sum_every_table_the_node_owns() {
        let sim = small_reference(&[]);
        let lowest = sim.nodes().map(|(id, _)| id).min();
        let index_bytes = sim.node(RouterId(1)).ch.index.read(PrefixIndex::heap_bytes);
        assert!(index_bytes.index > 0 && index_bytes.total() == index_bytes.index);
        let mut private_index_bytes = 0;
        for (id, node) in sim.nodes() {
            let ch = &node.ch;
            assert!(!ch.loc_rib.is_empty(), "every router selected something");
            // The index (bytes, no slots) at the lowest id alone, the
            // columns over it (rows), then the two private tables
            // (entries).
            let columns = [&node.client as &dyn Role, &node.arr, &node.trr];
            let rows = ch.loc_rib.slots() + columns.map(|role| role.slots()).iter().sum::<usize>();
            let sparse = [node.border.slots(), ch.out.slots()];
            let owned = ch.loc_rib.heap_bytes()
                + ch.out.heap_bytes()
                + node.roles().map(|role| role.heap_bytes()).into_iter().sum();
            let index = if Some(id) == lowest {
                index_bytes
            } else {
                HeapBytes::default()
            };
            let bytes = index + owned;
            let want = [
                ("core.store.slots", rows + sparse[0] + sparse[1]),
                ("core.store.index_bytes", bytes.index),
                ("core.store.slot_bytes", bytes.slots),
                ("core.store.path_bytes", bytes.paths),
            ];
            assert_eq!(node.store_gauges(), want);
            private_index_bytes += owned.index;
            // Only the index and the private tables say where index bytes
            // are; the index owns nothing else.
            let column_bytes: HeapBytes = columns.map(|role| role.heap_bytes()).into_iter().sum();
            assert_eq!((column_bytes + ch.loc_rib.heap_bytes()).index, 0);
            let indexed = ch.index.read(PrefixIndex::len);
            assert!(ch.loc_rib.slots() <= indexed, "no row without an id");
            // A private table's slots are its prefixes.
            let out_prefixes = ch.out.group_ids().map(|g| ch.out.iter_group(g).count());
            assert_eq!(sparse[1], out_prefixes.sum::<usize>(), "slots are entries");
            let ebgp = ch
                .index
                .read(|ix| node.border.known_prefixes_in(ix, 0, u32::MAX));
            assert!(sparse[0] <= ebgp.len(), "{sparse:?}");
            // A private table has no row array: its buckets are index bytes.
            let sparse_bytes = node.border.heap_bytes() + ch.out.heap_bytes();
            assert_eq!(sparse_bytes.slots, 0);
            assert!(sparse[1] == 0 || ch.out.heap_bytes().index > 0);
            // The border's routes are path bytes, 16 per route: each
            // prefix's `Vec` is sized exactly.
            let ebgp = node.ebgp_entries();
            assert_eq!(node.border.heap_bytes().paths, 16 * ebgp);
            assert_eq!(ebgp > 0, [3, 6, 9].contains(&node.ch.id.0));
        }
        // The fleet's sum — the report's `(all)` row — counts the shared
        // index once, beside every router's private tables.
        let fleet: usize = sim.nodes().map(|(_, n)| n.store_gauges()[1].1).sum();
        assert_eq!(fleet, index_bytes.index + private_index_bytes);
    }

    /// `core.mrai.pending_bytes` counts what the pacers hold: buffers
    /// while an interval defers updates, nothing once the last flush
    /// has handed them off.
    #[test]
    fn mrai_gauge_counts_the_pending_buffers() {
        let mut sim = small_reference_sim(1_000_000, &[]);
        let limits = netsim::RunLimits {
            max_time: 500_000,
            ..netsim::RunLimits::default()
        };
        assert!(!sim.run(limits).quiesced);
        let mut deferred = 0;
        for (_, node) in sim.nodes() {
            let pending: usize = node.ch.mrai.values().map(|m| m.pending_len()).sum();
            assert!(node.mrai_pending_bytes() >= Pacer::ENTRY_BYTES * pending);
            assert_eq!(node.mrai_pending_bytes() > 0, pending > 0);
            deferred += pending;
        }
        assert!(deferred > 0, "an ARR defers its second update");
        assert!(sim.run_to_quiescence().quiesced);
        for (_, node) in sim.nodes() {
            assert_eq!(node.mrai_pending_bytes(), 0);
        }
    }

    /// A paced update is stored as its (plane, prefix) key and its
    /// shared path set, nothing more: a field added to what
    /// `Chassis::mrai` stores adds to every deferred update at a load's
    /// peak.
    #[test]
    fn a_paced_update_is_24_bytes() {
        assert_eq!(Pacer::ENTRY_BYTES, 24);
    }

    /// Crashes `victim` one microsecond after `sim`'s last event, brings
    /// it and its sessions back a millisecond later, and runs to
    /// quiescence.
    fn crash_and_restart(sim: &mut netsim::Sim<BgpNode>, victim: RouterId) {
        let at = sim.now() + 1;
        let sessions: Vec<_> = sim
            .sessions()
            .filter(|((a, b), _)| *a == victim || *b == victim)
            .collect();
        sim.schedule_node_down(at, victim);
        sim.schedule_node_up(at + 1_000, victim);
        for ((a, b), latency) in sessions {
            sim.schedule_session_up(at + 1_000, a, b, latency);
        }
        assert!(sim.run_to_quiescence().quiesced);
    }

    /// The small reference network with a third prefix, `gone`,
    /// announced at router 9 and withdrawn again before a crash: the
    /// live prefixes, `gone`, and the events.
    fn with_a_withdrawn_prefix() -> (
        [Ipv4Prefix; 2],
        Ipv4Prefix,
        [(netsim::Time, RouterId, ExternalEvent); 2],
    ) {
        let border = RouterId(9);
        let live = ["10.0.0.0/8", "192.168.0.0/16"].map(|p| p.parse().unwrap());
        let gone: Ipv4Prefix = "172.16.0.0/12".parse().unwrap();
        let announce = ExternalEvent::EbgpAnnounce {
            prefix: gone,
            peer_as: Asn(7018),
            peer_addr: 9003,
            attrs: Arc::new(PathAttributes::ebgp(
                AsPath::sequence([Asn(7018)]),
                NextHop(9003),
            )),
        };
        let withdraw = ExternalEvent::EbgpWithdraw {
            prefix: gone,
            peer_addr: 9003,
        };
        (
            live,
            gone,
            [(0, border, announce), (50_000, border, withdraw)],
        )
    }

    /// Crash-restart clears every column of the router and keeps the
    /// network's ids: a restarted router re-converges to what a router
    /// that never crashed holds, except for what the restart is
    /// documented to lose — a prefix it has not heard of since has no
    /// count, no selection and an empty row in every table, and its
    /// change counts start again.
    #[test]
    fn restart_clears_every_column_and_keeps_the_ids() {
        let victim = RouterId(5);
        let (live, gone, events) = with_a_withdrawn_prefix();
        let run = || small_reference(&events);
        let prefixes_of = |n: &BgpNode| {
            n.ch.index
                .read(|ix| ix.iter().map(|(p, _)| *p).collect::<Vec<_>>())
        };
        let control = run();
        let mut sim = run();
        let before = sim.node(victim);
        assert_eq!(prefixes_of(before), [live[0], gone, live[1]]);
        assert!(
            before.selection_changes(&gone) >= 2,
            "selected, then withdrawn"
        );

        crash_and_restart(&mut sim, victim);

        // The fleet is where it was, the victim included.
        for (id, node) in sim.nodes() {
            let want = control.node(id);
            assert!(node.selections().eq(want.selections()), "node {id:?}");
            assert_eq!(
                (node.rib_in_size(), node.rib_out_size(), node.loc_rib_len()),
                (want.rib_in_size(), want.rib_out_size(), want.loc_rib_len()),
                "node {id:?}"
            );
        }
        // What the restart loses: at the victim, `gone` has no count,
        // no selection and no row in any table, and the live prefixes
        // count from the restart. The network's index still names it.
        let after = sim.node(victim);
        assert_eq!(prefixes_of(after), [live[0], gone, live[1]], "ids are kept");
        assert_eq!(after.selection_changes(&gone), 0);
        assert_eq!(after.selected(&gone), None);
        assert!(control.node(victim).selection_changes(&gone) >= 2);
        let held = after.ch.index.read(|ix| {
            let roles = after
                .roles()
                .map(|role| role.known_prefixes_in(ix, 0, u32::MAX));
            roles.concat()
        });
        assert!(!held.contains(&gone) && live.iter().all(|p| held.contains(p)));
        assert!(after
            .ch
            .out
            .group_ids()
            .all(|g| after.ch.out.paths(g, &gone).is_empty()));
        let selected: Vec<_> = after.selections().map(|(p, _)| p).collect();
        assert_eq!(selected, live);
        let counted: Vec<_> = after.all_selection_changes().map(|(p, _)| p).collect();
        assert_eq!(counted, live);
        for p in &live {
            let (now, uncrashed) = (
                after.selection_changes(p),
                control.node(victim).selection_changes(p),
            );
            assert!((1..=uncrashed).contains(&now), "{p}: {now} vs {uncrashed}");
        }
        // No stale id can address a fresh column: none has a row beyond
        // the index.
        let rows = after.roles().map(|role| role.slots());
        let n = after.ch.index.read(PrefixIndex::len);
        assert!(after.ch.loc_rib.slots() <= n && rows[1..].iter().all(|r| *r <= 2 * n));
    }

    /// Every node of one `build_sim` holds the same index, so a prefix
    /// has one id at every router and rows line up across the fleet;
    /// two sims never share one.
    #[test]
    fn the_routers_of_a_network_share_one_index() {
        let (a, b) = (small_reference(&[]), small_reference(&[]));
        let first = &a.node(RouterId(1)).ch.index;
        assert!(a.nodes().all(|(_, n)| n.ch.index.same(first)));
        assert!(b.nodes().all(|(_, n)| !n.ch.index.same(first)));
        for p in ["10.0.0.0/8", "192.168.0.0/16"].map(|p| p.parse::<Ipv4Prefix>().unwrap()) {
            let id = first.id(&p).expect("every router selected it");
            for (r, node) in a.nodes() {
                assert_eq!(node.ch.index.id(&p), Some(id), "{p} at {r:?}");
                assert_eq!(node.ch.index.resolve(p), id, "seen before");
                assert_eq!(node.ch.loc_rib.get(id), node.selected(&p), "{p} at {r:?}");
            }
        }
    }

    /// An id handed out before a router restarts names the same prefix
    /// after it, at the restarted router and at every other.
    #[test]
    fn an_id_outlives_a_restart() {
        let victim = RouterId(5);
        let (live, gone, events) = with_a_withdrawn_prefix();
        let mut sim = small_reference(&events);
        let prefixes = [live[0], live[1], gone];
        let ids = prefixes.map(|p| sim.node(victim).ch.index.id(&p));
        assert!(ids.iter().all(Option::is_some));

        crash_and_restart(&mut sim, victim);

        for (r, node) in sim.nodes() {
            assert_eq!(prefixes.map(|p| node.ch.index.id(&p)), ids, "at {r:?}");
        }
        let named = sim
            .node(victim)
            .ch
            .index
            .read(|ix| ids.map(|id| *ix.prefix(id.unwrap())));
        assert_eq!(named, prefixes);
    }
}
