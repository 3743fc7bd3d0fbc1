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
//! [`RibInColumn`], [`LocColumn`] — over the one [`PrefixIndex`] its
//! network shares; each sparse [`AdjRibOut`] group is a private
//! [`PrefixTable`] holding its path sets. *One* invariant covers
//! everything:
//!
//! * prefixes iterate in lexicographic `(addr, len)` order, sorted by
//!   [`PrefixTable`] — the index's for
//!   [`RibInColumn::known_prefixes_in`] and [`LocColumn::iter`], a
//!   group's for [`AdjRibOut::iter_group`] — or, for the list
//!   [`RibInColumn::drop_peer`] gathers in id order, by that method, so
//!   hash order never shows;
//! * an Adj-RIB-In row is one flat run of [`RibInEntry`]s kept sorted
//!   by ([`RouterId`], [`PathId`]), so [`RibInColumn::all_paths`]
//!   yields candidates in that order (it reaches the decision process's
//!   tie-breaking and is part of the determinism contract);
//! * RIB-Out path sets stay sorted by [`PathId`] via `normalize`.

use crate::decision::RouteRef;
use crate::store::{HeapBytes, Pages, PrefixId, PrefixIndex};
use bgp_types::{Ipv4Prefix, PathAttributes, PathId, PrefixTable, RouterId};
use std::borrow::Cow;
use std::collections::BTreeMap;
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

/// Entries an Adj-RIB-In row holds without a heap allocation: a
/// client's row holds one route per ARR of the prefix's AP, and most
/// APs have two ARRs (DESIGN.md §13).
const INLINE: usize = 2;

/// A spilled row of at most this many entries is allocated to fit
/// exactly; a longer one grows amortised. A rule on the row's own
/// length: short rows are a client's (one route per ARR of the AP,
/// hundreds of thousands of rows — slack is the cost), long ones a
/// reflector's (appended to peer after peer — reallocation is; exact
/// fit everywhere cost the TBRR load 5–13 % of its throughput).
/// DESIGN.md §13.
const EXACT_FIT_MAX: usize = 4;

/// One Adj-RIB-In row, sorted by (peer id, path id): up to [`INLINE`]
/// entries inline, more in a `Vec` of their own — 40 bytes either way.
#[derive(Clone, Debug, Default)]
enum RibInRow {
    #[default]
    Empty,
    One(RibInEntry),
    Two([RibInEntry; INLINE]),
    Spilled(Vec<RibInEntry>),
}

impl RibInRow {
    #[inline]
    fn as_slice(&self) -> &[RibInEntry] {
        match self {
            RibInRow::Empty => &[],
            RibInRow::One(e) => std::slice::from_ref(e),
            RibInRow::Two(es) => es,
            RibInRow::Spilled(es) => es,
        }
    }

    /// The entries, moved out in order.
    fn into_entries(self) -> impl Iterator<Item = RibInEntry> {
        let (inline, spilled) = match self {
            RibInRow::Empty => ([None, None], Vec::new()),
            RibInRow::One(a) => ([Some(a), None], Vec::new()),
            RibInRow::Two([a, b]) => ([Some(a), Some(b)], Vec::new()),
            RibInRow::Spilled(es) => ([None, None], es),
        };
        inline.into_iter().flatten().chain(spilled)
    }

    /// Appends `e`; a full inline row spills.
    fn push(&mut self, e: RibInEntry) {
        *self = match std::mem::take(self) {
            RibInRow::Empty => RibInRow::One(e),
            RibInRow::One(a) => RibInRow::Two([a, e]),
            RibInRow::Two([a, b]) => RibInRow::Spilled(vec![a, b, e]),
            RibInRow::Spilled(mut es) => {
                es.push(e);
                RibInRow::Spilled(es)
            }
        };
    }

    /// Heap bytes of a spilled row's entries, at capacity.
    fn spilled_bytes(&self) -> usize {
        match self {
            RibInRow::Spilled(es) => es.capacity() * size_of::<RibInEntry>(),
            _ => 0,
        }
    }

    /// Replaces the entries at `run` with `new`. A spilled row that stays
    /// longer than [`INLINE`] is spliced in place under the growth rule
    /// ([`EXACT_FIT_MAX`]); any other row is rebuilt in the form its new
    /// length takes — inline, empty, or a `Vec` of exactly that length —
    /// moving each kept entry once, with no temporary.
    fn replace(&mut self, run: Range<usize>, new: impl ExactSizeIterator<Item = RibInEntry>) {
        let len = self.as_slice().len() - run.len() + new.len();
        if let RibInRow::Spilled(es) = self {
            if len > INLINE {
                let extra = new.len().saturating_sub(run.len());
                if len <= EXACT_FIT_MAX {
                    es.reserve_exact(extra);
                } else {
                    es.reserve(extra);
                }
                // `splice` overwrites the old run in place and moves the
                // tail once for the difference in length.
                es.splice(run, new);
                return;
            }
        }
        let mut old = std::mem::take(self).into_entries();
        if len > INLINE {
            *self = RibInRow::Spilled(Vec::with_capacity(len));
        }
        for e in old.by_ref().take(run.start) {
            self.push(e);
        }
        old.by_ref().take(run.len()).for_each(drop);
        for e in new.chain(old) {
            self.push(e);
        }
    }
}

/// Where `peer`'s entries sit in a row (sorted by peer, so contiguous).
fn run_of(row: &[RibInEntry], peer: RouterId) -> Range<usize> {
    let lo = row.partition_point(|e| e.0 < peer);
    let hi = lo + row[lo..].partition_point(|e| e.0 == peer);
    lo..hi
}

/// One Adj-RIB-In as a column over a [`PrefixIndex`]: row
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
/// plus an in-place replace. There is no per-peer container and no
/// stored prefix: a row of up to two routes is its 40 bytes, a longer
/// one adds 16 bytes a route on the heap. Rows sit in pages of 256
/// that hold the rows written to them — in chunks never reallocated,
/// sparse until half full and dense after — and a prefix the column
/// holds nothing for is an empty row or none at all: both read as
/// empty.
#[derive(Clone, Debug, Default)]
pub struct RibInColumn {
    rows: Pages<RibInRow>,
    /// Sessions that ever spoke (no-op withdrawals included) and were
    /// not dropped, sorted: a handful per router, and every update
    /// looks its sender up here.
    peers: Vec<RouterId>,
    entries: usize,
}

impl RibInColumn {
    /// Creates an empty column.
    pub fn new() -> Self {
        RibInColumn::default()
    }

    /// Every entry stored for `id`, in (peer id, path id) order — the
    /// row itself, for callers that index back into it.
    #[inline]
    pub fn row(&self, id: PrefixId) -> &[RibInEntry] {
        self.rows.get(id).map_or(&[], RibInRow::as_slice)
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
        if let Err(at) = self.peers.binary_search(&peer) {
            self.peers.insert(at, peer);
        }
        if paths.is_empty() {
            let Some(row) = self.rows.get_mut(id) else {
                return false;
            };
            let run = run_of(row.as_slice(), peer);
            if run.is_empty() {
                return false;
            }
            self.entries -= run.len();
            row.replace(run, std::iter::empty());
            return true;
        }
        let row = self.rows.grow_to(id);
        let run = run_of(row.as_slice(), peer);
        let stored = row.as_slice()[run.clone()].iter().map(|(_, id, a)| (id, a));
        if stored.eq(paths.iter().map(|(id, a)| (id, a))) {
            return false;
        }
        self.entries = self.entries - run.len() + paths.len();
        match paths {
            Cow::Borrowed(set) => {
                row.replace(run, set.iter().map(|(id, a)| (peer, *id, a.clone())));
            }
            Cow::Owned(set) => {
                row.replace(run, set.into_iter().map(|(id, a)| (peer, id, a)));
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
        let Ok(at) = self.peers.binary_search(&peer) else {
            return Vec::new();
        };
        self.peers.remove(at);
        let mut dropped = Vec::new();
        for (id, row) in self.rows.iter_mut() {
            let run = run_of(row.as_slice(), peer);
            if !run.is_empty() {
                self.entries -= run.len();
                row.replace(run, std::iter::empty());
                dropped.push((*index.prefix(id), id));
            }
        }
        dropped.sort_unstable();
        dropped
    }

    /// The entries stored for `(peer, id)` in path-id order — the
    /// peer's sub-run of the row — empty slice if none.
    #[inline]
    pub fn paths(&self, peer: RouterId, id: PrefixId) -> &[RibInEntry] {
        let row = self.row(id);
        &row[run_of(row, peer)]
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
    pub fn candidates(&self, id: PrefixId) -> impl Iterator<Item = RouteRef<'_>> + Clone {
        let row = self.row(id).iter();
        row.map(|(peer, _, attrs)| RouteRef::ibgp(*peer, attrs))
    }

    /// Prefixes known from any peer that overlap the inclusive address
    /// range, in prefix order: `index`'s sorted overlap filtered on the
    /// column — the incremental path for Address-Partition
    /// reassignment.
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

    /// Rows the column holds, empty ones included: those written to a
    /// sparse page and every row of a dense one (occupancy gauge).
    pub fn slots(&self) -> usize {
        self.rows.rows()
    }

    /// Heap bytes of the pages plus every spilled row's entries, at
    /// capacity (see [`HeapBytes`]); the index is not the column's to
    /// count. Walks the rows: for reports, not the hot path.
    pub fn heap_bytes(&self) -> HeapBytes {
        HeapBytes {
            index: 0,
            slots: self.rows.heap_bytes(),
            paths: self.rows.iter().map(|(_, row)| row.spilled_bytes()).sum(),
        }
    }

    /// Peers with a session (possibly route-less after withdrawals).
    pub fn peers(&self) -> impl Iterator<Item = RouterId> + '_ {
        self.peers.iter().copied()
    }
}

/// The Loc-RIB as a column over a [`PrefixIndex`]: the
/// selected route per prefix, and how many times that selection has
/// changed (the oscillation-diagnostic signal: a converged network's
/// counts stop growing).
///
/// A row is `(selection, changes)`, in the same fixed pages as a
/// [`RibInColumn`]'s. A withdrawn prefix keeps its row, with no
/// selection, because its count must survive: the row is a tombstone
/// that [`LocColumn::len`], [`LocColumn::get`], [`LocColumn::iter`] and
/// [`LocColumn::lookup`] do not see. A row a dense page holds but that
/// was never selected has count zero and is seen by nothing at all.
#[derive(Clone, Debug)]
pub struct LocColumn<T> {
    rows: Pages<(Option<T>, u32)>,
    /// Rows holding a selection.
    live: usize,
}

impl<T> Default for LocColumn<T> {
    fn default() -> Self {
        LocColumn {
            rows: Pages::default(),
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
        // Withdrawing what was never selected leaves no trace.
        if value.is_none() && self.rows.get(id).is_none() {
            return false;
        }
        let slot = self.rows.grow_to(id);
        if slot.0 == value {
            return false;
        }
        self.live = self.live + value.is_some() as usize - slot.0.is_some() as usize;
        *slot = (value, slot.1.saturating_add(1));
        true
    }

    /// The current selection for `id`.
    pub fn get(&self, id: PrefixId) -> Option<&T> {
        self.rows.get(id)?.0.as_ref()
    }

    /// How many times the selection for `id` has changed, withdrawals
    /// included.
    pub fn changes(&self, id: PrefixId) -> u32 {
        self.rows.get(id).map_or(0, |slot| slot.1)
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

    /// Longest-prefix match against a destination address (one index
    /// probe per prefix length present). A withdrawn prefix does not
    /// match: the address falls through to the next shorter selected
    /// cover.
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

    /// Iterates `(prefix, selection)` in prefix order, as `index` sorts
    /// it. The selections borrow the column alone, so they may outlive
    /// a borrow of the index.
    pub fn iter<'a, 'i>(
        &'a self,
        index: &'i PrefixIndex,
    ) -> impl Iterator<Item = (&'i Ipv4Prefix, &'a T)> + use<'a, 'i, T> {
        index
            .iter()
            .filter_map(|(p, id)| self.get(id).map(|v| (p, v)))
    }

    /// Rows the column holds, tombstones included: those written to a
    /// sparse page and every row of a dense one (occupancy gauge).
    pub fn slots(&self) -> usize {
        self.rows.rows()
    }

    /// Heap bytes of the pages; a selection is taken to own nothing
    /// beyond its row (see [`HeapBytes`]).
    pub fn heap_bytes(&self) -> HeapBytes {
        HeapBytes {
            slots: self.rows.heap_bytes(),
            ..HeapBytes::default()
        }
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
    table: PrefixTable<PathSet>,
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
            // A fresh entry is empty, which `paths` is not.
            let slot = g.table.get_or_insert_with(prefix, PathSet::new);
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
    /// be deterministic. Sorts the group's table: for resyncs and AP
    /// reassignment, not the per-event path.
    pub fn iter_group(&self, group: u32) -> impl Iterator<Item = (Ipv4Prefix, &PathSet)> {
        self.groups
            .get(&group)
            .into_iter()
            .flat_map(|g| g.table.iter())
    }

    /// Starts a per-session export cursor for `peer`: walks every group
    /// the peer belongs to in ascending group-id order, and within each
    /// group every `(prefix, path set)` in prefix order — the
    /// deterministic order a session resync puts routes on the wire.
    /// The cursor borrows the shared per-group path sets, sorting one
    /// group's prefixes as it reaches the group; no path set is copied
    /// per session.
    pub fn export_walk(
        &self,
        peer: RouterId,
    ) -> impl Iterator<Item = (u32, Ipv4Prefix, &PathSet)> + '_ {
        self.groups
            .iter()
            .filter(move |(_, g)| g.members.contains(&peer))
            .flat_map(|(&gid, g)| g.table.iter().map(move |(p, set)| (gid, p, set)))
    }

    /// Prefixes stored, summed over the groups (occupancy gauge).
    pub fn slots(&self) -> usize {
        self.groups.values().map(|g| g.table.len()).sum()
    }

    /// Heap bytes of every group's hashed table, path-set headers
    /// inline, as [`HeapBytes::index`], plus what each `PathSet` owns
    /// as [`HeapBytes::paths`]. Walks the tables: for reports, not the
    /// hot path.
    pub fn heap_bytes(&self) -> HeapBytes {
        let group = |g: &GroupOut| HeapBytes {
            index: g.table.heap_bytes(),
            slots: 0,
            paths: g.table.values().map(Vec::capacity).sum::<usize>()
                * size_of::<(PathId, Arc<PathAttributes>)>(),
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
        self.entries -= g.table.values().map(Vec::len).sum::<usize>();
        g.table.clear();
        g.members = members.into();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{CHUNK_ROWS, DENSE_AT, PAGE_ROWS};
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

    /// `prefix`'s row, resolved as a router resolves a received
    /// update's: an id on first sight.
    fn row(index: &mut PrefixIndex, prefix: &str) -> PrefixId {
        index.resolve(pfx(prefix))
    }

    fn single(attrs: Arc<PathAttributes>) -> PathSet {
        vec![(PathId(0), attrs)]
    }

    #[test]
    fn rib_in_replace_set_semantics() {
        let (mut ix, mut rib) = (PrefixIndex::new(), RibInColumn::new());
        let peer = RouterId(1);
        let p = row(&mut ix, "10.0.0.0/8");
        assert!(rib.set_paths(peer, p, vec![(PathId(1), attrs(1)), (PathId(2), attrs(2))]));
        assert_eq!(rib.num_entries(), 2);
        // Same set (different order) = no change.
        assert!(!rib.set_paths(peer, p, vec![(PathId(2), attrs(2)), (PathId(1), attrs(1))]));
        // Shrinking the set replaces wholesale.
        assert!(rib.set_paths(peer, p, vec![(PathId(2), attrs(2))]));
        assert_eq!(rib.num_entries(), 1);
        assert_eq!(rib.paths(peer, p).len(), 1);
        // Withdraw.
        assert!(rib.withdraw(peer, p));
        assert!(!rib.withdraw(peer, p));
        assert_eq!(rib.num_entries(), 0);
    }

    /// A row is two routes inline or a spilled `Vec`, in 40 bytes. A
    /// page of 256 rows pays for the rows written to it: a slot map and
    /// chunks of 32 rows while sparse, and from its 128th row all eight
    /// chunks in row order.
    #[test]
    fn rib_in_row_is_40_bytes_and_a_page_holds_256_rows() {
        assert_eq!(size_of::<RibInRow>(), 40);
        assert_eq!((PAGE_ROWS, DENSE_AT, CHUNK_ROWS), (256, 128, 32));
        let (page, chunk) = (PAGE_ROWS * 40, CHUNK_ROWS * 40);
        // The list of pages at `Vec`'s least capacity, four entries of a
        // tag and a dense page's eight chunk pointers.
        let list = 4 * (8 + 8 * 8);
        // A sparse page's own allocation: the slot map, its count and
        // four chunk pointers.
        let slot_map = 256 + 8 + 4 * 8;
        let mut rib = RibInColumn::new();
        assert_eq!(rib.heap_bytes(), HeapBytes::default(), "no row, no page");
        // Rows scattered over page 0, as network ids reach a router: 167
        // is odd, so `k * 167 % 256` visits every row once.
        let fill = |rib: &mut RibInColumn, from: u32, to: u32| {
            for k in from..to {
                rib.set_paths(RouterId(1), k * 167 % 256, single(attrs(1)));
            }
        };
        fill(&mut rib, 0, 1);
        let one = rib.heap_bytes().slots;
        assert_eq!(
            one,
            list + slot_map + chunk,
            "one scattered row: a slot map and a chunk"
        );
        assert!(one < page / 4);
        fill(&mut rib, 1, 32);
        assert_eq!(
            (rib.slots(), rib.heap_bytes().slots),
            (32, one),
            "a chunk holds 32"
        );
        fill(&mut rib, 32, 33);
        assert_eq!(
            rib.heap_bytes().slots,
            one + chunk,
            "the 33rd row takes a chunk"
        );
        fill(&mut rib, 33, 127);
        assert_eq!(
            (rib.slots(), rib.heap_bytes().slots),
            (127, one + 3 * chunk)
        );
        fill(&mut rib, 0, 127);
        assert_eq!(
            rib.heap_bytes().slots,
            one + 3 * chunk,
            "rewriting holds no more"
        );
        fill(&mut rib, 127, 128);
        assert_eq!(
            (rib.slots(), rib.heap_bytes().slots),
            (256, list + page),
            "dense at 128"
        );
        fill(&mut rib, 128, 256);
        assert_eq!((rib.slots(), rib.heap_bytes().slots), (256, list + page));
        rib.set_paths(RouterId(1), 256, single(attrs(1)));
        let two_pages = list + page + slot_map + chunk;
        assert_eq!(
            (rib.slots(), rib.heap_bytes().slots),
            (257, two_pages),
            "the next page"
        );
        assert_eq!((rib.num_entries(), rib.heap_bytes().paths), (257, 0));
        assert!(rib.row(300).is_empty() && rib.row(100_000).is_empty());
    }

    #[test]
    fn rib_in_counts_across_peers() {
        let (mut ix, mut rib) = (PrefixIndex::new(), RibInColumn::new());
        let (p, q) = (row(&mut ix, "10.0.0.0/8"), row(&mut ix, "11.0.0.0/8"));
        rib.set_paths(RouterId(1), p, single(attrs(1)));
        rib.set_paths(RouterId(2), p, single(attrs(2)));
        rib.set_paths(RouterId(2), q, single(attrs(3)));
        assert_eq!(rib.num_entries(), 3);
        assert_eq!(rib.all_paths(p).count(), 2);
        assert_eq!(rib.known_prefixes_in(&ix, 0, u32::MAX).count(), 2);
    }

    #[test]
    fn rib_in_drop_peer() {
        let (mut ix, mut rib) = (PrefixIndex::new(), RibInColumn::new());
        let p = row(&mut ix, "10.0.0.0/8");
        rib.set_paths(RouterId(1), p, single(attrs(1)));
        rib.set_paths(RouterId(2), p, single(attrs(2)));
        let dropped = rib.drop_peer(&ix, RouterId(1));
        assert_eq!(dropped, vec![(pfx("10.0.0.0/8"), p)]);
        assert_eq!(rib.num_entries(), 1);
        assert!(rib.drop_peer(&ix, RouterId(1)).is_empty());
        // Peer 1 is forgotten; peer 2 still registered.
        assert_eq!(rib.peers().collect::<Vec<_>>(), vec![RouterId(2)]);
    }

    #[test]
    fn rib_in_peer_registered_on_noop_withdrawal() {
        // A withdrawal from an unknown peer stores nothing but still
        // registers the session, matching the old layout where
        // `entry(peer).or_default()` materialized an empty table.
        let (mut ix, mut rib) = (PrefixIndex::new(), RibInColumn::new());
        assert!(!rib.withdraw(RouterId(7), row(&mut ix, "10.0.0.0/8")));
        assert_eq!(rib.peers().collect::<Vec<_>>(), vec![RouterId(7)]);
        assert_eq!((rib.num_entries(), rib.slots()), (0, 0));
    }

    #[test]
    fn rib_in_all_paths_ordered_by_peer_then_path_id() {
        let (mut ix, mut rib) = (PrefixIndex::new(), RibInColumn::new());
        let p = row(&mut ix, "10.0.0.0/8");
        // Inserted high peer first: iteration must still be ascending.
        rib.set_paths(
            RouterId(9),
            p,
            vec![(PathId(2), attrs(2)), (PathId(1), attrs(1))],
        );
        rib.set_paths(RouterId(3), p, single(attrs(3)));
        let order: Vec<(RouterId, PathId)> = rib.all_paths(p).map(|(r, id, _)| (r, id)).collect();
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
        let (mut ix, mut rib) = (PrefixIndex::new(), RibInColumn::new());
        // Arrival order is not prefix order; the walk is.
        for (peer, p) in [(2, "30.0.0.0/8"), (1, "20.0.0.0/8"), (1, "10.0.0.0/8")] {
            let id = row(&mut ix, p);
            rib.set_paths(RouterId(peer), id, single(attrs(peer)));
        }
        row(&mut ix, "20.1.0.0/16"); // indexed, but nothing stored
        let known = |start, end| -> Vec<String> {
            let hits = rib.known_prefixes_in(&ix, start, end);
            hits.map(|(p, _)| p.to_string()).collect()
        };
        assert_eq!(known(0x14000000, 0x14FFFFFF), vec!["20.0.0.0/8"]);
        assert_eq!(
            known(0, u32::MAX),
            vec!["10.0.0.0/8", "20.0.0.0/8", "30.0.0.0/8"]
        );
    }

    #[test]
    fn rib_in_path_id_dedup() {
        let (mut ix, mut rib) = (PrefixIndex::new(), RibInColumn::new());
        // Duplicate path id in one set: only one survives normalization.
        rib.set_paths(
            RouterId(1),
            row(&mut ix, "10.0.0.0/8"),
            vec![(PathId(1), attrs(1)), (PathId(1), attrs(2))],
        );
        assert_eq!(rib.num_entries(), 1);
    }

    #[test]
    fn loc_rib_set_get_lookup() {
        let (mut ix, mut rib) = (PrefixIndex::new(), LocColumn::<u32>::new());
        let (p, q) = (row(&mut ix, "10.0.0.0/8"), row(&mut ix, "10.1.0.0/16"));
        assert!(rib.set(p, Some(1)));
        assert!(!rib.set(p, Some(1)));
        assert!(rib.set(p, Some(2)));
        assert!(rib.set(q, Some(3)));
        assert_eq!(rib.lookup(&ix, 0x0A010000).map(|(_, v)| *v), Some(3));
        assert_eq!(rib.lookup(&ix, 0x0AFF0000).map(|(_, v)| *v), Some(2));
        assert_eq!(rib.lookup(&ix, 0x0B000000), None);
        assert!(rib.set(q, None));
        assert!(!rib.set(q, None));
        assert_eq!(rib.len(), 1);
    }

    #[test]
    fn loc_rib_withdrawn_prefix_keeps_its_count_and_nothing_else() {
        let (mut ix, mut rib) = (PrefixIndex::new(), LocColumn::<u32>::new());
        let (wide, narrow) = (pfx("10.1.0.0/16"), pfx("10.1.2.0/24"));
        let (w, n) = (ix.resolve(wide), ix.resolve(narrow));
        let addr = 0x0A010203;
        assert!(rib.set(w, Some(16)));
        assert!(rib.set(n, Some(24)));
        assert_eq!(rib.lookup(&ix, addr), Some((narrow, &24)));
        assert_eq!((rib.len(), rib.changes(n)), (2, 1));
        // Withdrawn: a tombstone no reader sees, except for the count.
        assert!(rib.set(n, None));
        assert_eq!(rib.lookup(&ix, addr), Some((wide, &16)), "falls through");
        assert_eq!(rib.get(n), None);
        assert_eq!(rib.len(), 1);
        assert_eq!(rib.iter(&ix).collect::<Vec<_>>(), vec![(&wide, &16)]);
        assert_eq!(rib.changes(n), 2);
        assert_eq!(
            rib.iter_changes(&ix).collect::<Vec<_>>(),
            vec![(&wide, 1), (&narrow, 2)]
        );
        // Re-announced into the same row.
        let slots = rib.slots();
        assert!(rib.set(n, Some(7)));
        assert_eq!((rib.len(), rib.changes(n)), (2, 3));
        assert_eq!(rib.lookup(&ix, addr), Some((narrow, &7)));
        assert_eq!(rib.slots(), slots);
    }

    #[test]
    fn loc_rib_withdrawing_the_unknown_leaves_no_trace() {
        let (mut ix, mut rib) = (PrefixIndex::new(), LocColumn::<u32>::new());
        // The router resolves a withdrawal's prefix like any other.
        let p = row(&mut ix, "10.0.0.0/8");
        assert!(!rib.set(p, None));
        assert_eq!(rib.changes(p), 0);
        assert_eq!(rib.iter_changes(&ix).count(), 0);
        assert_eq!(rib.slots(), 0, "no row");
        assert!(rib.is_empty());
    }

    #[test]
    fn loc_rib_default_route() {
        let (mut ix, mut rib) = (PrefixIndex::new(), LocColumn::<&str>::new());
        rib.set(ix.resolve(Ipv4Prefix::DEFAULT), Some("default"));
        assert_eq!(
            rib.lookup(&ix, 0xDEADBEEF).map(|(_, v)| *v),
            Some("default")
        );
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
        out.define_group(0, vec![RouterId(1), RouterId(2)]);
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
            .map(|(g, p, _)| (g, p))
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
