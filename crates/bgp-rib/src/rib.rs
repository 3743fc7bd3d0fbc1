//! The conceptual RIBs of RFC 4271 §3.2: Adj-RIB-In, Loc-RIB,
//! Adj-RIB-Out — with add-paths "replace the whole set" semantics and
//! peer-group-based Adj-RIB-Out, matching the accounting of paper
//! Appendix A ("We assume that ARRs have configured a single peer
//! group"; TRRs have two).
//!
//! Path attributes are held behind [`Arc`] so that one attribute object
//! is shared by every RIB and in-flight message that references it —
//! at experiment scale (hundreds of thousands of prefixes × dozens of
//! routers) this is the difference between megabytes and gigabytes.
//!
//! Storage (see [`crate::store`] for the layouts and the single
//! key-ordering policy): a router's full tables are id-keyed columns —
//! [`RibInColumn`], [`LocColumn`] — over the one [`PrefixIndex`] it
//! owns; [`AdjRibIn`] and [`LocRib`] are the same columns behind a
//! private index, for a caller that holds a single table; the sparse
//! [`AdjRibOut`] groups stay on [`PrefixSlab`]. *One* invariant covers
//! everything:
//!
//! * prefixes iterate in lexicographic `(addr, len)` order, straight
//!   off a trie — [`RibInColumn::known_prefixes_in`],
//!   [`AdjRibOut::iter_group`] and [`LocColumn::iter`] need
//!   no explicit sorts, and [`RibInColumn::drop_peer`] sorts the one
//!   list it gathers in id order;
//! * an Adj-RIB-In row is one flat run of [`RibInEntry`]s kept sorted
//!   by ([`RouterId`], [`PathId`]), so [`RibInColumn::all_paths`]
//!   yields candidates in that order (it reaches the decision process's
//!   tie-breaking and is part of the determinism contract);
//! * RIB-Out path sets stay sorted by [`PathId`] via `normalize`.

use crate::decision::Candidate;
use crate::store::{HeapBytes, PrefixId, PrefixIndex, PrefixSlab};
use bgp_types::{Ipv4Prefix, PathAttributes, PathId, RouterId};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::mem::size_of;
use std::ops::Range;
use std::sync::Arc;

/// The set of paths advertised for one prefix on one session, keyed by
/// add-paths [`PathId`]. Kept sorted by path id for deterministic
/// comparison.
pub type PathSet = Vec<(PathId, Arc<PathAttributes>)>;

/// Canonicalises a path set: sorted by [`PathId`], duplicates dropped.
/// Every stored set passes through here unless it already is canonical,
/// which is what makes path sets order-insensitive on receipt — the
/// wire codec's decode path relies on this to deliver path-id-sorted
/// sets without changing behaviour.
pub fn normalize(mut set: PathSet) -> PathSet {
    set.sort_by_key(|(id, _)| *id);
    set.dedup_by(|a, b| a.0 == b.0);
    set
}

/// A path set as the tables take it: an owned [`PathSet`], whose `Arc`s
/// move in, or a borrowed slice, whose `Arc`s are cloned only if the
/// set is stored.
type PathsIn<'a> = Cow<'a, [(PathId, Arc<PathAttributes>)]>;

/// [`normalize`] for a set that usually is canonical already (every
/// set this codebase builds is), and is then left where it lies.
fn canonical(paths: PathsIn<'_>) -> PathsIn<'_> {
    if paths.windows(2).all(|w| w[0].0 < w[1].0) {
        paths
    } else {
        Cow::Owned(normalize(paths.into_owned()))
    }
}

/// One stored Adj-RIB-In route: the peer it came from, its add-paths
/// id, and the shared attributes — 16 bytes.
pub type RibInEntry = (RouterId, PathId, Arc<PathAttributes>);

/// A slot of at most this many entries is allocated to fit exactly; a
/// longer one grows amortised. A rule on the slot's own length: short
/// slots are a client's (one route per ARR of the AP, hundreds of
/// thousands of slots — slack is the cost), long ones a reflector's
/// (appended to peer after peer — reallocation is; exact fit everywhere
/// cost the TBRR load 5–13 % of its throughput). DESIGN.md §13.
const EXACT_FIT_MAX: usize = 4;

/// Where `peer`'s entries sit in a slot (sorted by peer, so contiguous).
fn run_of(slot: &[RibInEntry], peer: RouterId) -> Range<usize> {
    let lo = slot.partition_point(|e| e.0 < peer);
    let hi = lo + slot[lo..].partition_point(|e| e.0 == peer);
    lo..hi
}

/// Takes `run` out of a row; an emptied row gives its allocation back.
fn remove_run(slot: &mut Vec<RibInEntry>, run: Range<usize>) {
    slot.drain(run);
    if slot.is_empty() {
        *slot = Vec::new();
    }
}

/// One Adj-RIB-In as a column over a router's [`PrefixIndex`]: row
/// `id` holds every peer's routes for that prefix.
///
/// Replace-set semantics per (peer, prefix): each update carries the
/// complete new path set for the prefix (paper §3.4: "should there be a
/// change in the set of best AS-level routes, the ARRs will convey all
/// such routes to the clients with each update"). A plain single-path
/// session is the one-element special case.
///
/// A row is one flat run of [`RibInEntry`]s sorted by (peer id, path
/// id): a peer's set is a contiguous sub-run, [`RibInColumn::all_paths`]
/// is a slice walk in candidate order, and one update is an array index
/// plus an in-place splice. There is no per-peer container and no
/// stored prefix: a route costs its 16 bytes, a row its `Vec` header.
/// The column grows to the highest id written; a prefix it holds
/// nothing for is an empty row or none at all — both read as empty.
#[derive(Clone, Debug, Default)]
pub struct RibInColumn {
    rows: Vec<Vec<RibInEntry>>,
    /// Sessions that ever spoke (no-op withdrawals included) and were
    /// not dropped.
    peers: BTreeSet<RouterId>,
    entries: usize,
}

impl RibInColumn {
    /// Creates an empty column.
    pub fn new() -> Self {
        RibInColumn::default()
    }

    #[inline]
    fn row(&self, id: PrefixId) -> &[RibInEntry] {
        self.rows.get(id as usize).map_or(&[], |slot| slot)
    }

    /// Replaces the path set for `(peer, id)`. An empty `paths` is a
    /// withdrawal. Returns `true` when the stored set changed. Takes an
    /// owned [`PathSet`], whose `Arc`s move into the table, or a
    /// borrowed slice, whose `Arc`s are cloned only if it is stored.
    pub fn set_paths<'a>(
        &mut self,
        peer: RouterId,
        id: PrefixId,
        paths: impl Into<PathsIn<'a>>,
    ) -> bool {
        let paths = canonical(paths.into());
        self.peers.insert(peer);
        let i = id as usize;
        if paths.is_empty() {
            let Some(slot) = self.rows.get_mut(i) else {
                return false;
            };
            let run = run_of(slot, peer);
            if run.is_empty() {
                return false;
            }
            self.entries -= run.len();
            remove_run(slot, run);
            return true;
        }
        if i >= self.rows.len() {
            self.rows.resize_with(i + 1, Vec::new);
        }
        let slot = &mut self.rows[i];
        let run = run_of(slot, peer);
        let stored = slot[run.clone()].iter().map(|(_, id, a)| (id, a));
        if stored.eq(paths.iter().map(|(id, a)| (id, a))) {
            return false;
        }
        let extra = paths.len().saturating_sub(run.len());
        if slot.len() + extra <= EXACT_FIT_MAX {
            slot.reserve_exact(extra);
        } else {
            slot.reserve(extra);
        }
        self.entries = self.entries - run.len() + paths.len();
        // `splice` overwrites the old run in place and moves the tail
        // once for the difference in length.
        match paths {
            Cow::Borrowed(set) => {
                slot.splice(run, set.iter().map(|(id, a)| (peer, *id, a.clone())));
            }
            Cow::Owned(set) => {
                slot.splice(run, set.into_iter().map(|(id, a)| (peer, id, a)));
            }
        }
        true
    }

    /// Withdraws all paths for `(peer, id)`.
    pub fn withdraw(&mut self, peer: RouterId, id: PrefixId) -> bool {
        self.set_paths(peer, id, &[][..])
    }

    /// Drops everything learned from `peer` (session reset). Returns
    /// the prefixes that were present, in prefix order: the rows are
    /// scanned in id order and the hits sorted, so arrival order does
    /// not show.
    pub fn drop_peer(
        &mut self,
        index: &PrefixIndex,
        peer: RouterId,
    ) -> Vec<(Ipv4Prefix, PrefixId)> {
        if !self.peers.remove(&peer) {
            return Vec::new();
        }
        let mut dropped = Vec::new();
        for (id, slot) in self.rows.iter_mut().enumerate() {
            let run = run_of(slot, peer);
            if !run.is_empty() {
                self.entries -= run.len();
                remove_run(slot, run);
                dropped.push((*index.prefix(id as PrefixId), id as PrefixId));
            }
        }
        dropped.sort_unstable();
        dropped
    }

    /// The entries stored for `(peer, id)` in path-id order — the
    /// peer's sub-run of the row — empty slice if none.
    #[inline]
    pub fn paths(&self, peer: RouterId, id: PrefixId) -> &[RibInEntry] {
        let slot = self.row(id);
        &slot[run_of(slot, peer)]
    }

    /// Iterates every `(peer, path id, attrs)` stored for `id`, in
    /// (peer id, path id) order.
    #[inline]
    pub fn all_paths(
        &self,
        id: PrefixId,
    ) -> impl Iterator<Item = (RouterId, PathId, &Arc<PathAttributes>)> + '_ {
        self.row(id).iter().map(|(peer, id, a)| (*peer, *id, a))
    }

    /// Every route stored for `id` as an iBGP decision candidate, in
    /// (peer id, path id) order.
    #[inline]
    pub fn candidates(&self, id: PrefixId) -> impl Iterator<Item = Candidate> + '_ {
        self.all_paths(id)
            .map(|(peer, _, attrs)| Candidate::ibgp(peer, attrs))
    }

    /// Prefixes known from any peer that overlap the inclusive address
    /// range, in prefix order: a pruned walk of `index` filtered on the
    /// column. Cost scales with the overlap, not the table — the
    /// incremental path for Address-Partition reassignment.
    pub fn known_prefixes_in<'a>(
        &'a self,
        index: &'a PrefixIndex,
        range_start: u32,
        range_end: u32,
    ) -> impl Iterator<Item = (Ipv4Prefix, PrefixId)> + 'a {
        index
            .iter_overlapping(range_start, range_end)
            .filter(|(_, id)| !self.row(*id).is_empty())
            .map(|(p, id)| (*p, id))
    }

    /// Total stored route entries — the paper's RIB-In size metric
    /// (one entry per (peer, prefix, path)).
    pub fn num_entries(&self) -> usize {
        self.entries
    }

    /// Rows the column has grown to, empty ones included (occupancy
    /// gauge).
    pub fn slots(&self) -> usize {
        self.rows.len()
    }

    /// Heap bytes of the row array plus every row's run of entries, at
    /// capacity (see [`HeapBytes`]); the index is not the column's to
    /// count. Walks the rows: for reports, not the hot path.
    pub fn heap_bytes(&self) -> HeapBytes {
        let runs = self.rows.iter().map(Vec::capacity);
        HeapBytes {
            index: 0,
            slots: self.rows.capacity() * size_of::<Vec<RibInEntry>>(),
            paths: runs.sum::<usize>() * size_of::<RibInEntry>(),
        }
    }

    /// Peers with a session (possibly route-less after withdrawals).
    pub fn peers(&self) -> impl Iterator<Item = RouterId> + '_ {
        self.peers.iter().copied()
    }
}

/// A stand-alone, prefix-keyed Adj-RIB-In: a private [`PrefixIndex`]
/// and one [`RibInColumn`] over it, each method "resolve, delegate".
/// A router shares one index between its columns instead; this is the
/// same table for a caller that holds only one.
#[derive(Clone, Debug, Default)]
pub struct AdjRibIn {
    index: PrefixIndex,
    column: RibInColumn,
}

impl AdjRibIn {
    /// Creates an empty Adj-RIB-In.
    pub fn new() -> Self {
        AdjRibIn::default()
    }

    /// The id behind `prefix`, or one past every row: reads as empty.
    #[inline]
    fn id(&self, prefix: &Ipv4Prefix) -> PrefixId {
        self.index.id(prefix).unwrap_or(PrefixId::MAX)
    }

    /// See [`RibInColumn::set_paths`].
    pub fn set_paths<'a>(
        &mut self,
        peer: RouterId,
        prefix: Ipv4Prefix,
        paths: impl Into<PathsIn<'a>>,
    ) -> bool {
        let id = self.index.resolve(prefix);
        self.column.set_paths(peer, id, paths)
    }

    /// Replaces with a single path (plain session convenience); path id 0.
    pub fn set_single(
        &mut self,
        peer: RouterId,
        prefix: Ipv4Prefix,
        attrs: Arc<PathAttributes>,
    ) -> bool {
        self.set_paths(peer, prefix, vec![(PathId(0), attrs)])
    }

    /// Withdraws all paths for `(peer, prefix)`.
    pub fn withdraw(&mut self, peer: RouterId, prefix: Ipv4Prefix) -> bool {
        self.set_paths(peer, prefix, &[][..])
    }

    /// See [`RibInColumn::drop_peer`].
    pub fn drop_peer(&mut self, peer: RouterId) -> Vec<Ipv4Prefix> {
        let dropped = self.column.drop_peer(&self.index, peer);
        dropped.into_iter().map(|(p, _)| p).collect()
    }

    /// See [`RibInColumn::paths`].
    pub fn paths(&self, peer: RouterId, prefix: &Ipv4Prefix) -> &[RibInEntry] {
        self.column.paths(peer, self.id(prefix))
    }

    /// See [`RibInColumn::all_paths`].
    #[inline]
    pub fn all_paths<'a>(
        &'a self,
        prefix: &'a Ipv4Prefix,
    ) -> impl Iterator<Item = (RouterId, PathId, &'a Arc<PathAttributes>)> + 'a {
        self.column.all_paths(self.id(prefix))
    }

    /// Every prefix known from any peer, in prefix order.
    pub fn known_prefixes(&self) -> Vec<Ipv4Prefix> {
        self.known_prefixes_in(0, u32::MAX)
    }

    /// See [`RibInColumn::known_prefixes_in`].
    pub fn known_prefixes_in(&self, range_start: u32, range_end: u32) -> Vec<Ipv4Prefix> {
        let known = self
            .column
            .known_prefixes_in(&self.index, range_start, range_end);
        known.map(|(p, _)| p).collect()
    }

    /// See [`RibInColumn::num_entries`].
    pub fn num_entries(&self) -> usize {
        self.column.num_entries()
    }

    /// Heap bytes of the index and the column (see [`HeapBytes`]).
    pub fn heap_bytes(&self) -> HeapBytes {
        self.index.heap_bytes() + self.column.heap_bytes()
    }

    /// See [`RibInColumn::peers`].
    pub fn peers(&self) -> impl Iterator<Item = RouterId> + '_ {
        self.column.peers()
    }
}

/// The Loc-RIB as a column over a router's [`PrefixIndex`]: the
/// selected route per prefix, and how many times that selection has
/// changed (the oscillation-diagnostic signal: a converged network's
/// counts stop growing).
///
/// A row is `(selection, changes)`. A withdrawn prefix keeps its row,
/// with no selection, because its count must survive: the row is a
/// tombstone that [`LocColumn::len`], [`LocColumn::get`],
/// [`LocColumn::iter`] and [`LocColumn::lookup`] do not
/// see. A row the column merely grew past — never selected — has count
/// zero and is seen by nothing at all.
#[derive(Clone, Debug)]
pub struct LocColumn<T> {
    rows: Vec<(Option<T>, u32)>,
    /// Rows holding a selection.
    live: usize,
}

impl<T> Default for LocColumn<T> {
    fn default() -> Self {
        LocColumn {
            rows: Vec::new(),
            live: 0,
        }
    }
}

impl<T: Clone + PartialEq> LocColumn<T> {
    /// Creates an empty column.
    pub fn new() -> Self {
        LocColumn::default()
    }

    /// Sets the selection for `id`; `None` removes it. Returns `true`
    /// when the stored value changed, which is also when the prefix's
    /// change count goes up.
    pub fn set(&mut self, id: PrefixId, value: Option<T>) -> bool {
        let i = id as usize;
        if i >= self.rows.len() {
            // Withdrawing what was never selected leaves no trace.
            if value.is_none() {
                return false;
            }
            self.rows.resize_with(i + 1, || (None, 0));
        }
        let slot = &mut self.rows[i];
        if slot.0 == value {
            return false;
        }
        self.live = self.live + value.is_some() as usize - slot.0.is_some() as usize;
        *slot = (value, slot.1.saturating_add(1));
        true
    }

    /// The current selection for `id`.
    pub fn get(&self, id: PrefixId) -> Option<&T> {
        self.rows.get(id as usize)?.0.as_ref()
    }

    /// How many times the selection for `id` has changed, withdrawals
    /// included.
    pub fn changes(&self, id: PrefixId) -> u32 {
        self.rows.get(id as usize).map_or(0, |slot| slot.1)
    }

    /// Iterates `(prefix, change count)` over every prefix ever
    /// selected, withdrawn ones included, in prefix order.
    pub fn iter_changes<'a>(
        &'a self,
        index: &'a PrefixIndex,
    ) -> impl Iterator<Item = (&'a Ipv4Prefix, u32)> {
        index
            .iter()
            .map(|(p, id)| (p, self.changes(id)))
            .filter(|(_, changes)| *changes > 0)
    }

    /// Longest-prefix match against a destination address (single trie
    /// descent). A withdrawn prefix does not match: the address falls
    /// through to the next shorter selected cover.
    pub fn lookup(&self, index: &PrefixIndex, addr: u32) -> Option<(Ipv4Prefix, &T)> {
        let (p, id) = index.longest_match_where(addr, |id| self.get(id).is_some())?;
        self.get(id).map(|v| (p, v))
    }

    /// Number of selected prefixes.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Iterates `(prefix, selection)` in prefix order, streamed from
    /// `index` (no snapshot sort).
    pub fn iter<'a>(
        &'a self,
        index: &'a PrefixIndex,
    ) -> impl Iterator<Item = (&'a Ipv4Prefix, &'a T)> {
        index
            .iter()
            .filter_map(|(p, id)| self.get(id).map(|v| (p, v)))
    }

    /// Rows the column has grown to, tombstones included (occupancy
    /// gauge).
    pub fn slots(&self) -> usize {
        self.rows.len()
    }

    /// Heap bytes of the row array; a selection is taken to own nothing
    /// beyond its row (see [`HeapBytes`]).
    pub fn heap_bytes(&self) -> HeapBytes {
        HeapBytes {
            slots: self.rows.capacity() * size_of::<(Option<T>, u32)>(),
            ..HeapBytes::default()
        }
    }
}

/// A stand-alone, prefix-keyed Loc-RIB: a private [`PrefixIndex`] and
/// one [`LocColumn`] over it (see [`AdjRibIn`] for the arrangement).
#[derive(Clone, Debug)]
pub struct LocRib<T> {
    index: PrefixIndex,
    column: LocColumn<T>,
}

impl<T> Default for LocRib<T> {
    fn default() -> Self {
        LocRib {
            index: PrefixIndex::new(),
            column: LocColumn::default(),
        }
    }
}

impl<T: Clone + PartialEq> LocRib<T> {
    /// Creates an empty Loc-RIB.
    pub fn new() -> Self {
        LocRib::default()
    }

    /// The id behind `prefix`, or one past every row: reads as absent.
    fn id(&self, prefix: &Ipv4Prefix) -> PrefixId {
        self.index.id(prefix).unwrap_or(PrefixId::MAX)
    }

    /// See [`LocColumn::set`]. A prefix enters the index when it is
    /// first selected, not when it is first withdrawn.
    pub fn set(&mut self, prefix: Ipv4Prefix, value: Option<T>) -> bool {
        let id = match value {
            Some(_) => self.index.resolve(prefix),
            None => self.id(&prefix),
        };
        self.column.set(id, value)
    }

    /// See [`LocColumn::get`].
    pub fn get(&self, prefix: &Ipv4Prefix) -> Option<&T> {
        self.column.get(self.id(prefix))
    }

    /// See [`LocColumn::changes`].
    pub fn changes(&self, prefix: &Ipv4Prefix) -> u32 {
        self.column.changes(self.id(prefix))
    }

    /// See [`LocColumn::iter_changes`].
    pub fn iter_changes(&self) -> impl Iterator<Item = (&Ipv4Prefix, u32)> {
        self.column.iter_changes(&self.index)
    }

    /// See [`LocColumn::lookup`].
    pub fn lookup(&self, addr: u32) -> Option<(Ipv4Prefix, &T)> {
        self.column.lookup(&self.index, addr)
    }

    /// Number of selected prefixes.
    pub fn len(&self) -> usize {
        self.column.len()
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.column.is_empty()
    }

    /// See [`LocColumn::iter`].
    pub fn iter(&self) -> impl Iterator<Item = (&Ipv4Prefix, &T)> {
        self.column.iter(&self.index)
    }

    /// Live index nodes + rows (occupancy gauge pair), tombstones
    /// included.
    pub fn occupancy(&self) -> (usize, usize) {
        (self.index.index_nodes(), self.column.slots())
    }

    /// Heap bytes of the index and the column (see [`HeapBytes`]).
    pub fn heap_bytes(&self) -> HeapBytes {
        self.index.heap_bytes() + self.column.heap_bytes()
    }
}

/// Adj-RIB-Out organized as peer groups: every member of a group
/// receives the same routes, and the RIB-Out stores one copy per group
/// (paper Appendix A's accounting; also how real routers exploit peer
/// groups to generate an update once, per §3.3). Per-session state is
/// reduced to a cursor over the shared tables ([`AdjRibOut::export_walk`]).
///
/// Per-peer exceptions (e.g. "do not send a route back to the client it
/// was learned from", Table 1) are handled by the engines at
/// transmission time, not by duplicating RIB-Out state.
#[derive(Clone, Debug, Default)]
pub struct AdjRibOut {
    groups: BTreeMap<u32, GroupOut>,
    entries: usize,
}

#[derive(Clone, Debug, Default)]
struct GroupOut {
    /// Shared, so a fan-out holds the list by cloning a pointer.
    members: Arc<[RouterId]>,
    table: PrefixSlab<PathSet>,
}

impl AdjRibOut {
    /// Creates an empty Adj-RIB-Out.
    pub fn new() -> Self {
        AdjRibOut::default()
    }

    /// Creates (or replaces) a peer group with the given members.
    pub fn define_group(&mut self, group: u32, members: Vec<RouterId>) {
        let g = self.groups.entry(group).or_default();
        g.members = members.into();
    }

    /// Adds a member to a group (e.g. a late-joining client).
    pub fn add_member(&mut self, group: u32, member: RouterId) {
        let g = self.groups.entry(group).or_default();
        if !g.members.contains(&member) {
            g.members = g.members.iter().copied().chain([member]).collect();
        }
    }

    /// Members of a group.
    pub fn members(&self, group: u32) -> &[RouterId] {
        self.groups.get(&group).map_or(&[], |g| &g.members)
    }

    /// Members of a group, shared: for a caller that walks the list
    /// while it mutates the RIB-Out.
    pub fn members_shared(&self, group: u32) -> Arc<[RouterId]> {
        self.groups
            .get(&group)
            .map(|g| g.members.clone())
            .unwrap_or_default()
    }

    /// Replaces the advertised path set for `prefix` in `group`. Empty
    /// set = withdrawal. Returns `true` when the stored set changed —
    /// i.e. when an update had to be *generated* (the expensive
    /// operation per paper §4.2). Takes an owned [`PathSet`] or a
    /// borrowed slice; an unchanged set costs a comparison.
    pub fn set_paths<'a>(
        &mut self,
        group: u32,
        prefix: Ipv4Prefix,
        paths: impl Into<PathsIn<'a>>,
    ) -> bool {
        let paths = canonical(paths.into());
        let g = self.groups.entry(group).or_default();
        if paths.is_empty() {
            match g.table.remove(&prefix) {
                Some(old) => {
                    self.entries -= old.len();
                    true
                }
                None => false,
            }
        } else {
            // A fresh slot is empty, which `paths` is not.
            let slot = g.table.get_or_insert_with(prefix, Vec::new);
            if slot[..] == paths[..] {
                return false;
            }
            self.entries -= slot.len();
            self.entries += paths.len();
            *slot = paths.into_owned();
            true
        }
    }

    /// The advertised set for `prefix` in `group`.
    pub fn paths(&self, group: u32, prefix: &Ipv4Prefix) -> &[(PathId, Arc<PathAttributes>)] {
        self.groups
            .get(&group)
            .and_then(|g| g.table.get(prefix))
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Total stored entries across groups — the paper's RIB-Out size
    /// metric (one copy per peer group).
    pub fn num_entries(&self) -> usize {
        self.entries
    }

    /// The defined group ids.
    pub fn group_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.groups.keys().copied()
    }

    /// Iterates `(prefix, path set)` for one group in prefix order —
    /// this order reaches the wire during session resyncs, so it must
    /// be deterministic. Streams off the trie index; no snapshot sort.
    pub fn iter_group(&self, group: u32) -> impl Iterator<Item = (&Ipv4Prefix, &PathSet)> {
        self.groups
            .get(&group)
            .into_iter()
            .flat_map(|g| g.table.iter())
    }

    /// Starts a per-session export cursor for `peer`: walks every group
    /// the peer belongs to in ascending group-id order, and within each
    /// group every `(prefix, path set)` in prefix order — the
    /// deterministic order a session resync puts routes on the wire.
    /// The cursor borrows the shared per-group tables; nothing is
    /// copied per session.
    pub fn export_walk(&self, peer: RouterId) -> ExportWalk<'_> {
        let mut groups: Vec<u32> = self
            .groups
            .iter()
            .filter(|(_, g)| g.members.contains(&peer))
            .map(|(id, _)| *id)
            .collect();
        groups.reverse(); // pop() from the back yields ascending ids
        ExportWalk {
            rib: self,
            groups,
            cur: None,
        }
    }

    /// Live trie nodes + allocated slots summed over groups (occupancy
    /// gauge pair).
    pub fn occupancy(&self) -> (usize, usize) {
        self.groups.values().fold((0, 0), |(n, s), g| {
            (n + g.table.index_nodes(), s + g.table.slot_capacity())
        })
    }

    /// Heap bytes of every group's table plus the `PathSet` in each
    /// slot (see [`HeapBytes`]). Walks the tables: for reports, not the
    /// hot path.
    pub fn heap_bytes(&self) -> HeapBytes {
        let group = |g: &GroupOut| HeapBytes {
            paths: g.table.iter().map(|(_, set)| set.capacity()).sum::<usize>()
                * size_of::<(PathId, Arc<PathAttributes>)>(),
            ..g.table.heap_bytes()
        };
        self.groups.values().map(group).sum()
    }

    /// Drops every stored route while keeping the group definitions: a
    /// router that crash-restarts loses its RIB contents but not its
    /// configured peer groups.
    pub fn clear_routes(&mut self) {
        for g in self.groups.values_mut() {
            g.table.clear();
        }
        self.entries = 0;
    }

    /// Replaces a group's members *and* forgets its stored routes, so
    /// the next recomputation regenerates (and re-sends) the full table
    /// instead of being suppressed by change detection. Used when group
    /// membership changes at runtime (e.g. AP reassignment).
    pub fn reset_group(&mut self, group: u32, members: Vec<RouterId>) {
        let g = self.groups.entry(group).or_default();
        self.entries -= g.table.iter().map(|(_, v)| v.len()).sum::<usize>();
        g.table.clear();
        g.members = members.into();
    }
}

/// A per-session cursor over the peer-group-deduplicated export state:
/// yields `(group, prefix, path set)` in (group id, prefix) order for
/// every group the session's peer belongs to. See
/// [`AdjRibOut::export_walk`].
pub struct ExportWalk<'a> {
    rib: &'a AdjRibOut,
    /// Remaining group ids, descending (popped from the back).
    groups: Vec<u32>,
    /// Cursor position: current group and its table iterator.
    cur: Option<(u32, GroupIter<'a>)>,
}

type GroupIter<'a> = Box<dyn Iterator<Item = (&'a Ipv4Prefix, &'a PathSet)> + 'a>;

impl<'a> Iterator for ExportWalk<'a> {
    type Item = (u32, &'a Ipv4Prefix, &'a PathSet);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some((gid, it)) = &mut self.cur {
                if let Some((p, set)) = it.next() {
                    return Some((*gid, p, set));
                }
                self.cur = None;
            }
            let gid = self.groups.pop()?;
            self.cur = Some((gid, Box::new(self.rib.iter_group(gid))));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_types::{AsPath, Asn, NextHop};

    fn pfx(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn attrs(seed: u32) -> Arc<PathAttributes> {
        Arc::new(PathAttributes::ebgp(
            AsPath::sequence([Asn(seed)]),
            NextHop(seed),
        ))
    }

    #[test]
    fn rib_in_replace_set_semantics() {
        let mut rib = AdjRibIn::new();
        let peer = RouterId(1);
        let p = pfx("10.0.0.0/8");
        assert!(rib.set_paths(peer, p, vec![(PathId(1), attrs(1)), (PathId(2), attrs(2))]));
        assert_eq!(rib.num_entries(), 2);
        // Same set (different order) = no change.
        assert!(!rib.set_paths(peer, p, vec![(PathId(2), attrs(2)), (PathId(1), attrs(1))]));
        // Shrinking the set replaces wholesale.
        assert!(rib.set_paths(peer, p, vec![(PathId(2), attrs(2))]));
        assert_eq!(rib.num_entries(), 1);
        assert_eq!(rib.paths(peer, &p).len(), 1);
        // Withdraw.
        assert!(rib.withdraw(peer, p));
        assert!(!rib.withdraw(peer, p));
        assert_eq!(rib.num_entries(), 0);
    }

    #[test]
    fn rib_in_counts_across_peers() {
        let mut rib = AdjRibIn::new();
        let p = pfx("10.0.0.0/8");
        rib.set_single(RouterId(1), p, attrs(1));
        rib.set_single(RouterId(2), p, attrs(2));
        rib.set_single(RouterId(2), pfx("11.0.0.0/8"), attrs(3));
        assert_eq!(rib.num_entries(), 3);
        assert_eq!(rib.all_paths(&p).count(), 2);
        assert_eq!(rib.known_prefixes().len(), 2);
    }

    #[test]
    fn rib_in_drop_peer() {
        let mut rib = AdjRibIn::new();
        let p = pfx("10.0.0.0/8");
        rib.set_single(RouterId(1), p, attrs(1));
        rib.set_single(RouterId(2), p, attrs(2));
        let dropped = rib.drop_peer(RouterId(1));
        assert_eq!(dropped, vec![p]);
        assert_eq!(rib.num_entries(), 1);
        assert!(rib.drop_peer(RouterId(1)).is_empty());
        // Peer 1 is forgotten; peer 2 still registered.
        assert_eq!(rib.peers().collect::<Vec<_>>(), vec![RouterId(2)]);
    }

    #[test]
    fn rib_in_peer_registered_on_noop_withdrawal() {
        // A withdrawal from an unknown peer stores nothing but still
        // registers the session, matching the old layout where
        // `entry(peer).or_default()` materialized an empty table.
        let mut rib = AdjRibIn::new();
        assert!(!rib.withdraw(RouterId(7), pfx("10.0.0.0/8")));
        assert_eq!(rib.peers().collect::<Vec<_>>(), vec![RouterId(7)]);
        assert_eq!(rib.num_entries(), 0);
    }

    #[test]
    fn rib_in_all_paths_ordered_by_peer_then_path_id() {
        let mut rib = AdjRibIn::new();
        let p = pfx("10.0.0.0/8");
        // Inserted high peer first: iteration must still be ascending.
        rib.set_paths(
            RouterId(9),
            p,
            vec![(PathId(2), attrs(2)), (PathId(1), attrs(1))],
        );
        rib.set_single(RouterId(3), p, attrs(3));
        let order: Vec<(RouterId, PathId)> = rib.all_paths(&p).map(|(r, id, _)| (r, id)).collect();
        assert_eq!(
            order,
            vec![
                (RouterId(3), PathId(0)),
                (RouterId(9), PathId(1)),
                (RouterId(9), PathId(2)),
            ]
        );
    }

    #[test]
    fn rib_in_known_prefixes_in_range() {
        let mut rib = AdjRibIn::new();
        rib.set_single(RouterId(1), pfx("10.0.0.0/8"), attrs(1));
        rib.set_single(RouterId(1), pfx("20.0.0.0/8"), attrs(2));
        rib.set_single(RouterId(2), pfx("30.0.0.0/8"), attrs(3));
        assert_eq!(
            rib.known_prefixes_in(0x14000000, 0x14FFFFFF),
            vec![pfx("20.0.0.0/8")]
        );
        assert_eq!(rib.known_prefixes_in(0, u32::MAX).len(), 3);
    }

    #[test]
    fn rib_in_path_id_dedup() {
        let mut rib = AdjRibIn::new();
        let p = pfx("10.0.0.0/8");
        // Duplicate path id in one set: only one survives normalization.
        rib.set_paths(
            RouterId(1),
            p,
            vec![(PathId(1), attrs(1)), (PathId(1), attrs(2))],
        );
        assert_eq!(rib.num_entries(), 1);
    }

    #[test]
    fn loc_rib_set_get_lookup() {
        let mut rib: LocRib<u32> = LocRib::new();
        assert!(rib.set(pfx("10.0.0.0/8"), Some(1)));
        assert!(!rib.set(pfx("10.0.0.0/8"), Some(1)));
        assert!(rib.set(pfx("10.0.0.0/8"), Some(2)));
        assert!(rib.set(pfx("10.1.0.0/16"), Some(3)));
        assert_eq!(rib.lookup(0x0A010000).map(|(_, v)| *v), Some(3));
        assert_eq!(rib.lookup(0x0AFF0000).map(|(_, v)| *v), Some(2));
        assert_eq!(rib.lookup(0x0B000000), None);
        assert!(rib.set(pfx("10.1.0.0/16"), None));
        assert!(!rib.set(pfx("10.1.0.0/16"), None));
        assert_eq!(rib.len(), 1);
    }

    #[test]
    fn loc_rib_withdrawn_prefix_keeps_its_count_and_nothing_else() {
        let mut rib: LocRib<u32> = LocRib::new();
        let (wide, narrow) = (pfx("10.1.0.0/16"), pfx("10.1.2.0/24"));
        let addr = 0x0A010203;
        assert!(rib.set(wide, Some(16)));
        assert!(rib.set(narrow, Some(24)));
        assert_eq!(rib.lookup(addr), Some((narrow, &24)));
        assert_eq!((rib.len(), rib.changes(&narrow)), (2, 1));
        // Withdrawn: a tombstone no reader sees, except for the count.
        assert!(rib.set(narrow, None));
        assert_eq!(rib.lookup(addr), Some((wide, &16)), "falls through");
        assert_eq!(rib.get(&narrow), None);
        assert_eq!(rib.len(), 1);
        assert_eq!(rib.iter().collect::<Vec<_>>(), vec![(&wide, &16)]);
        assert_eq!(rib.changes(&narrow), 2);
        assert_eq!(
            rib.iter_changes().collect::<Vec<_>>(),
            vec![(&wide, 1), (&narrow, 2)]
        );
        // Re-announced into the same slot.
        let slots = rib.occupancy().1;
        assert!(rib.set(narrow, Some(7)));
        assert_eq!((rib.len(), rib.changes(&narrow)), (2, 3));
        assert_eq!(rib.lookup(addr), Some((narrow, &7)));
        assert_eq!(rib.occupancy().1, slots);
    }

    #[test]
    fn loc_rib_withdrawing_the_unknown_leaves_no_trace() {
        let mut rib: LocRib<u32> = LocRib::new();
        let p = pfx("10.0.0.0/8");
        assert!(!rib.set(p, None));
        assert_eq!(rib.changes(&p), 0);
        assert_eq!(rib.iter_changes().count(), 0);
        assert_eq!(rib.occupancy(), (1, 0), "the index root, no slot");
        assert!(rib.is_empty());
    }

    #[test]
    fn loc_rib_default_route() {
        let mut rib: LocRib<&str> = LocRib::new();
        rib.set(Ipv4Prefix::DEFAULT, Some("default"));
        assert_eq!(rib.lookup(0xDEADBEEF).map(|(_, v)| *v), Some("default"));
    }

    #[test]
    fn rib_out_generation_detection() {
        let mut out = AdjRibOut::new();
        out.define_group(0, vec![RouterId(1), RouterId(2)]);
        let p = pfx("10.0.0.0/8");
        // First advertisement: generated.
        assert!(out.set_paths(0, p, vec![(PathId(1), attrs(1))]));
        // Identical set: NOT generated.
        assert!(!out.set_paths(0, p, vec![(PathId(1), attrs(1))]));
        // Changed attrs under same path id: generated.
        assert!(out.set_paths(0, p, vec![(PathId(1), attrs(9))]));
        // Withdraw: generated; second withdraw: not.
        assert!(out.set_paths(0, p, vec![]));
        assert!(!out.set_paths(0, p, vec![]));
    }

    #[test]
    fn rib_out_entries_counted_per_group_once() {
        let mut out = AdjRibOut::new();
        out.define_group(0, vec![RouterId(1), RouterId(2), RouterId(3)]);
        out.define_group(1, vec![RouterId(4)]);
        let p = pfx("10.0.0.0/8");
        out.set_paths(0, p, vec![(PathId(1), attrs(1)), (PathId(2), attrs(2))]);
        out.set_paths(1, p, vec![(PathId(1), attrs(1))]);
        // 2 entries in group 0 (not multiplied by 3 members) + 1 in group 1.
        assert_eq!(out.num_entries(), 3);
    }

    #[test]
    fn rib_out_group_membership() {
        let mut out = AdjRibOut::new();
        out.define_group(0, vec![RouterId(1)]);
        out.add_member(0, RouterId(2));
        out.add_member(0, RouterId(2));
        assert_eq!(out.members(0), &[RouterId(1), RouterId(2)]);
        assert!(out.members(9).is_empty());
    }

    #[test]
    fn rib_out_export_walk_order() {
        let mut out = AdjRibOut::new();
        out.define_group(2, vec![RouterId(1), RouterId(2)]);
        out.define_group(1, vec![RouterId(1)]);
        out.define_group(3, vec![RouterId(9)]);
        out.set_paths(2, pfx("20.0.0.0/8"), vec![(PathId(1), attrs(1))]);
        out.set_paths(2, pfx("10.0.0.0/8"), vec![(PathId(1), attrs(1))]);
        out.set_paths(1, pfx("30.0.0.0/8"), vec![(PathId(1), attrs(1))]);
        out.set_paths(3, pfx("5.0.0.0/8"), vec![(PathId(1), attrs(1))]);
        let walked: Vec<(u32, Ipv4Prefix)> = out
            .export_walk(RouterId(1))
            .map(|(g, p, _)| (g, *p))
            .collect();
        // Groups ascending, prefixes ascending within each; group 3
        // (peer not a member) skipped.
        assert_eq!(
            walked,
            vec![
                (1, pfx("30.0.0.0/8")),
                (2, pfx("10.0.0.0/8")),
                (2, pfx("20.0.0.0/8")),
            ]
        );
        assert!(out.export_walk(RouterId(42)).next().is_none());
    }

    #[test]
    fn rib_out_clear_and_reset() {
        let mut out = AdjRibOut::new();
        out.define_group(0, vec![RouterId(1)]);
        out.define_group(1, vec![RouterId(2)]);
        let p = pfx("10.0.0.0/8");
        out.set_paths(0, p, vec![(PathId(1), attrs(1)), (PathId(2), attrs(2))]);
        out.set_paths(1, p, vec![(PathId(1), attrs(1))]);
        assert_eq!(out.num_entries(), 3);
        // reset_group: routes forgotten, membership replaced, other
        // groups untouched.
        out.reset_group(1, vec![RouterId(3)]);
        assert_eq!(out.num_entries(), 2);
        assert_eq!(out.members(1), &[RouterId(3)]);
        assert!(out.paths(1, &p).is_empty());
        // Re-advertising the same set now counts as a generation again.
        assert!(out.set_paths(1, p, vec![(PathId(1), attrs(1))]));
        // clear_routes: all tables emptied, groups survive.
        out.clear_routes();
        assert_eq!(out.num_entries(), 0);
        assert_eq!(out.members(0), &[RouterId(1)]);
        assert!(out.set_paths(0, p, vec![(PathId(1), attrs(1))]));
    }
}
