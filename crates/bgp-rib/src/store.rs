//! Prefix-keyed storage: one table type, [`PrefixTable`], in two
//! roles, and order from its sort wherever order is observed.
//!
//! * A [`PrefixIndex`] maps prefix → dense [`PrefixId`] and back: a
//!   `PrefixTable<PrefixId>` plus the id → prefix `Vec`. A simulated
//!   network keeps *one*, shared by all its routers, and each router's
//!   full tables (every Adj-RIB-In, the Loc-RIB) are paged columns
//!   indexed by that id ([`crate::rib::RibInColumn`],
//!   [`crate::rib::LocColumn`], each over a `Pages`): one hashed probe
//!   per received update, array reads after it, and no table carries an
//!   index or a stored prefix of its own. A page pays for the rows a
//!   router writes to it, not for the ids the network has reached:
//!   sparse (a slot map, rows in write order) until half full, dense
//!   (rows in row order) from then on. Ids are handed out on first
//!   sight and never recycled; a router restart clears its columns and
//!   keeps the ids. This module knows nothing of the sharing: the
//!   columns take the index as a `&PrefixIndex`.
//! * A *sparse* table — the per-group Adj-RIB-Out, the eBGP Adj-RIB-In —
//!   is a private `PrefixTable<T>` holding its values in its buckets:
//!   it covers a small share of a router's prefixes, where a dense
//!   column would cost more than the small table (DESIGN.md §13).
//!
//! Every per-event access is a point lookup, one hashed probe; no event
//! pays for order. Longest-prefix match, the hashing (see
//! `bgp_types::fxhash` for why not Fx) and the collect-then-sort
//! ordering live in [`PrefixTable`] alone.
//!
//! # Determinism contract
//!
//! This is the single key-ordering policy for all RIB storage:
//!
//! * [`PrefixIndex::iter`], [`PrefixIndex::iter_overlapping`] and every
//!   ordered walk of a sparse table ([`crate::rib::AdjRibOut::iter_group`],
//!   [`crate::rib::AdjRibOut::export_walk`]) yield prefixes in
//!   lexicographic `(addr, len)` order — `Ipv4Prefix`'s `Ord` — because
//!   [`PrefixTable`] sorts what it collects, independent of insertion
//!   history. Hash iteration order never reaches a result. The sort is
//!   paid by reports, session resyncs and Address-Partition
//!   reassignment, never per event.
//! * Prefix ids depend on arrival order and must never reach observable
//!   output: anything order-observable sorts by prefix and filters on
//!   the column, and nothing prints an id.

use bgp_types::{Ipv4Prefix, PrefixTable};
use std::fmt;
use std::iter::Sum;
use std::mem::size_of;
use std::ops::Add;

/// Heap bytes owned by RIB storage, by structure — the
/// `core.store.{index,slot,path}_bytes` gauges. Capacities, not
/// lengths, so the parts sum to what the allocator handed out; sums
/// across tables with `+` or `Iterator::sum`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HeapBytes {
    /// Hashed tables — a sparse table's buckets hold its values
    /// inline — and the index's id → prefix `Vec`.
    pub index: usize,
    /// Column rows: a sparse page's slot map and chunks, a dense page's
    /// chunks, and the column's list of pages.
    pub slots: usize,
    /// What the rows and table values own: an Adj-RIB-In row's run of
    /// entries, a RIB-Out `PathSet`, the border's routes for a prefix.
    /// The `PathAttributes` behind the `Arc`s are shared fleet-wide and
    /// excluded; so are the small `BTreeSet`/`BTreeMap`s of peers and
    /// groups.
    pub paths: usize,
}

impl HeapBytes {
    /// All three parts.
    pub fn total(&self) -> usize {
        self.index + self.slots + self.paths
    }
}

impl Add for HeapBytes {
    type Output = HeapBytes;

    fn add(self, o: HeapBytes) -> HeapBytes {
        HeapBytes {
            index: self.index + o.index,
            slots: self.slots + o.slots,
            paths: self.paths + o.paths,
        }
    }
}

impl Sum for HeapBytes {
    fn sum<I: Iterator<Item = HeapBytes>>(iter: I) -> HeapBytes {
        iter.fold(HeapBytes::default(), Add::add)
    }
}

/// A prefix's dense id in one [`PrefixIndex`]: the row number in every
/// column over that index. Arrival-order dependent — never output.
pub type PrefixId = u32;

/// Rows per column page (DESIGN.md §13).
pub(crate) const PAGE_ROWS: usize = 256;

/// A sparse page turns dense when it would hold this many rows: half
/// the page.
pub(crate) const DENSE_AT: usize = PAGE_ROWS / 2;

/// Rows per chunk. Every row of a column lives in a chunk of this size,
/// allocated whole and never reallocated: a sparse page's rows in write
/// order, a dense page's in row order. One size for both is what lets a
/// dense page reuse the chunks freed when sparse pages turn dense
/// (DESIGN.md §13).
pub(crate) const CHUNK_ROWS: usize = 32;

/// Chunks of a dense page.
const PAGE_CHUNKS: usize = PAGE_ROWS / CHUNK_ROWS;

/// Chunks a sparse page can hold: enough for the rows before
/// [`DENSE_AT`].
const SPARSE_CHUNKS: usize = DENSE_AT / CHUNK_ROWS;

/// A chunk of rows.
type Chunk<T> = [T; CHUNK_ROWS];

/// A column's rows, in pages of [`PAGE_ROWS`]: row `id` is row
/// `id % PAGE_ROWS` of page `id / PAGE_ROWS`. A page pays for the rows
/// written to it, not for the ids reached: it starts sparse and turns
/// dense at [`DENSE_AT`] rows, and a column never written has no page.
/// A row, once written, is held until the column is dropped; a dense
/// page holds all its rows, and one never written reads as a default
/// row, like an absent one.
#[derive(Clone, Debug)]
pub(crate) struct Pages<T> {
    pages: Vec<Page<T>>,
}

/// One page of a column.
#[derive(Clone, Debug)]
enum Page<T> {
    /// No row written.
    Empty,
    /// Fewer than [`DENSE_AT`] rows, in the order they were written.
    Sparse(Box<Sparse<T>>),
    /// Every row, in row order: row `r` is `chunks[r / CHUNK_ROWS][r %
    /// CHUNK_ROWS]`. The chunk pointers sit in the list of pages, so a
    /// read loads one pointer, as a single page allocation would.
    Dense([Box<Chunk<T>>; PAGE_CHUNKS]),
}

/// A sparse page: a slot map, and the rows in write order.
#[derive(Clone, Debug)]
struct Sparse<T> {
    /// `slot[r]` is 0 for a row not held, else 1 + the row's place in
    /// write order.
    slot: [u8; PAGE_ROWS],
    /// Rows held; less than [`DENSE_AT`].
    len: u8,
    /// Place `k` in write order is `chunks[k / CHUNK_ROWS][k % CHUNK_ROWS]`;
    /// a chunk is allocated when its first place is taken.
    chunks: [Option<Box<Chunk<T>>>; SPARSE_CHUNKS],
}

impl<T> Default for Pages<T> {
    fn default() -> Self {
        Pages { pages: Vec::new() }
    }
}

/// The page and the row within it of `id`.
#[inline]
fn split(id: PrefixId) -> (usize, usize) {
    let i = id as usize;
    (i / PAGE_ROWS, i % PAGE_ROWS)
}

/// The id of row `r` of page `p`.
#[inline]
fn id_of(p: usize, r: usize) -> PrefixId {
    (p * PAGE_ROWS + r) as PrefixId
}

fn chunk<T: Default>() -> Box<Chunk<T>> {
    Box::new(std::array::from_fn(|_| T::default()))
}

impl<T: Default> Sparse<T> {
    fn new() -> Box<Self> {
        Box::new(Sparse {
            slot: [0; PAGE_ROWS],
            len: 0,
            chunks: std::array::from_fn(|_| None),
        })
    }

    /// The row at place `k` in write order, if a chunk holds it.
    #[inline]
    fn at(&self, k: usize) -> Option<&T> {
        Some(&self.chunks[k / CHUNK_ROWS].as_ref()?[k % CHUNK_ROWS])
    }

    #[inline]
    fn at_mut(&mut self, k: usize) -> Option<&mut T> {
        Some(&mut self.chunks[k / CHUNK_ROWS].as_mut()?[k % CHUNK_ROWS])
    }

    #[inline]
    fn get(&self, r: usize) -> Option<&T> {
        self.at(usize::from(self.slot[r]).checked_sub(1)?)
    }

    #[inline]
    fn get_mut(&mut self, r: usize) -> Option<&mut T> {
        self.at_mut(usize::from(self.slot[r]).checked_sub(1)?)
    }

    /// Row `r` for writing; a row not held yet takes the next place in
    /// write order. The page must hold `r` or fewer than `DENSE_AT - 1`
    /// rows.
    fn grow_to(&mut self, r: usize) -> &mut T {
        if self.slot[r] == 0 {
            self.len += 1;
            self.slot[r] = self.len;
        }
        let k = usize::from(self.slot[r]) - 1;
        &mut self.chunks[k / CHUNK_ROWS].get_or_insert_with(chunk)[k % CHUNK_ROWS]
    }

    /// The same rows in row order, as a dense page's chunks: the page's
    /// own chunks first, then new ones.
    fn take_dense(&mut self) -> [Box<Chunk<T>>; PAGE_CHUNKS] {
        let mut rows: [T; PAGE_ROWS] =
            std::array::from_fn(|r| self.get_mut(r).map(std::mem::take).unwrap_or_default());
        let mut own = self.chunks.iter_mut().filter_map(Option::take);
        std::array::from_fn(|c| {
            let mut dense = own.next().unwrap_or_else(chunk);
            let from = rows[c * CHUNK_ROWS..].iter_mut();
            dense
                .iter_mut()
                .zip(from)
                .for_each(|(to, row)| *to = std::mem::take(row));
            dense
        })
    }

    /// The rows held, in row order, with their row numbers.
    fn iter_mut(&mut self) -> impl Iterator<Item = (usize, &mut T)> {
        let mut by_place: Vec<Option<&mut T>> = self
            .chunks
            .iter_mut()
            .flatten()
            .flat_map(|rows| rows.iter_mut().map(Some))
            .collect();
        let slots = self.slot.iter().enumerate();
        slots.filter_map(move |(r, &s)| Some((r, by_place[usize::from(s).checked_sub(1)?].take()?)))
    }

    fn heap_bytes(&self) -> usize {
        let chunks = self.chunks.iter().flatten().count();
        size_of::<Sparse<T>>() + chunks * size_of::<Chunk<T>>()
    }
}

impl<T: Default> Page<T> {
    #[inline]
    fn get(&self, r: usize) -> Option<&T> {
        match self {
            Page::Dense(chunks) => Some(&chunks[r / CHUNK_ROWS][r % CHUNK_ROWS]),
            Page::Sparse(sparse) => sparse.get(r),
            Page::Empty => None,
        }
    }

    /// The rows held, in row order, with their row numbers.
    fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        let rows = match self {
            Page::Empty => 0..0,
            _ => 0..PAGE_ROWS,
        };
        rows.filter_map(|r| Some((r, self.get(r)?)))
    }

    /// [`Page::iter`], for writing.
    fn iter_mut(&mut self) -> impl Iterator<Item = (usize, &mut T)> {
        let (dense, sparse) = match self {
            Page::Dense(chunks) => (Some(chunks.iter_mut().flat_map(|c| c.iter_mut())), None),
            Page::Sparse(sparse) => (None, Some(sparse.iter_mut())),
            Page::Empty => (None, None),
        };
        let dense = dense.into_iter().flatten().enumerate();
        dense.chain(sparse.into_iter().flatten())
    }
}

impl<T: Default> Pages<T> {
    /// Row `id`, if held.
    #[inline]
    pub(crate) fn get(&self, id: PrefixId) -> Option<&T> {
        let (p, r) = split(id);
        self.pages.get(p)?.get(r)
    }

    /// Row `id` for writing, if held.
    #[inline]
    pub(crate) fn get_mut(&mut self, id: PrefixId) -> Option<&mut T> {
        let (p, r) = split(id);
        match self.pages.get_mut(p)? {
            Page::Dense(chunks) => Some(&mut chunks[r / CHUNK_ROWS][r % CHUNK_ROWS]),
            Page::Sparse(sparse) => sparse.get_mut(r),
            Page::Empty => None,
        }
    }

    /// Row `id` for writing, held from now on: a row not held yet is a
    /// default one, and takes the next place of its page — which turns
    /// dense if that row is its [`DENSE_AT`]th.
    pub(crate) fn grow_to(&mut self, id: PrefixId) -> &mut T {
        let (p, r) = split(id);
        if self.pages.len() <= p {
            self.pages.resize_with(p + 1, || Page::Empty);
        }
        let page = &mut self.pages[p];
        match page {
            Page::Empty => *page = Page::Sparse(Sparse::new()),
            Page::Sparse(sparse)
                if sparse.slot[r] == 0 && usize::from(sparse.len) + 1 == DENSE_AT =>
            {
                *page = Page::Dense(sparse.take_dense());
            }
            _ => {}
        }
        match page {
            Page::Dense(chunks) => &mut chunks[r / CHUNK_ROWS][r % CHUNK_ROWS],
            Page::Sparse(sparse) => sparse.grow_to(r),
            // Invariant: the match above replaced an empty page.
            Page::Empty => unreachable!("an empty page was replaced above"),
        }
    }

    /// Rows held: a sparse page's rows and every row of a dense page.
    pub(crate) fn rows(&self) -> usize {
        let held = |page: &Page<T>| match page {
            Page::Empty => 0,
            Page::Sparse(sparse) => usize::from(sparse.len),
            Page::Dense(_) => PAGE_ROWS,
        };
        self.pages.iter().map(held).sum()
    }

    /// The rows held, in id order, with their ids.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (PrefixId, &T)> {
        let pages = self.pages.iter().enumerate();
        pages.flat_map(|(p, page)| page.iter().map(move |(r, row)| (id_of(p, r), row)))
    }

    /// [`Pages::iter`], for writing.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = (PrefixId, &mut T)> {
        let pages = self.pages.iter_mut().enumerate();
        pages.flat_map(|(p, page)| page.iter_mut().map(move |(r, row)| (id_of(p, r), row)))
    }

    /// Heap bytes of the list of pages at its capacity — a dense page's
    /// chunk pointers included — and of the pages' own allocations: a
    /// sparse page's slot map and chunks, a dense page's chunks. All of
    /// it is [`HeapBytes::slots`].
    pub(crate) fn heap_bytes(&self) -> usize {
        let page = |page: &Page<T>| match page {
            Page::Empty => 0,
            Page::Sparse(sparse) => sparse.heap_bytes(),
            Page::Dense(_) => PAGE_CHUNKS * size_of::<Chunk<T>>(),
        };
        self.pages.capacity() * size_of::<Page<T>>() + self.pages.iter().map(page).sum::<usize>()
    }
}

/// A prefix index: a [`PrefixTable`] from prefix to dense
/// [`PrefixId`] and the `Vec` that maps back, one per simulated network.
/// Grow-only: an id, once handed out, names its prefix until the whole
/// index is dropped.
#[derive(Clone, Default)]
pub struct PrefixIndex {
    ids: PrefixTable<PrefixId>,
    prefixes: Vec<Ipv4Prefix>,
}

impl PrefixIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        PrefixIndex::default()
    }

    /// Number of prefixes ever resolved.
    pub fn len(&self) -> usize {
        self.prefixes.len()
    }

    /// Whether no prefix was ever resolved.
    pub fn is_empty(&self) -> bool {
        self.prefixes.is_empty()
    }

    /// The id of `prefix`, handing out the next one on first sight: one
    /// hashed probe, hit or miss.
    pub fn resolve(&mut self, prefix: Ipv4Prefix) -> PrefixId {
        let prefixes = &mut self.prefixes;
        *self.ids.get_or_insert_with(prefix, || {
            prefixes.push(prefix);
            (prefixes.len() - 1) as PrefixId
        })
    }

    /// The id of `prefix` if it was ever resolved.
    #[inline]
    pub fn id(&self, prefix: &Ipv4Prefix) -> Option<PrefixId> {
        self.ids.get(prefix).copied()
    }

    /// The prefix `id` names. Panics on an id this index never gave.
    pub fn prefix(&self, id: PrefixId) -> &Ipv4Prefix {
        &self.prefixes[id as usize]
    }

    /// Iterates `(prefix, id)` in lexicographic prefix order: a sort of
    /// the whole index, for reports.
    pub fn iter(&self) -> impl Iterator<Item = (&Ipv4Prefix, PrefixId)> {
        self.ids.iter().map(|(_, &id)| (self.prefix(id), id))
    }

    /// Iterates the prefixes overlapping the inclusive address range,
    /// in the same order as [`PrefixIndex::iter`]
    /// ([`PrefixTable::iter_overlapping`]).
    pub fn iter_overlapping(
        &self,
        range_start: u32,
        range_end: u32,
    ) -> impl Iterator<Item = (&Ipv4Prefix, PrefixId)> {
        let hits = self.ids.iter_overlapping(range_start, range_end);
        hits.map(|(_, &id)| (self.prefix(id), id))
    }

    /// Longest-prefix match for a destination address among the ids
    /// `pred` accepts; a rejected prefix falls through to the next
    /// shorter cover ([`PrefixTable::longest_match_where`]).
    pub fn longest_match_where(
        &self,
        addr: u32,
        pred: impl Fn(PrefixId) -> bool,
    ) -> Option<(Ipv4Prefix, PrefixId)> {
        let (p, &id) = self.ids.longest_match_where(addr, |&id| pred(id))?;
        Some((p, id))
    }

    /// Heap bytes of the table and the id → prefix `Vec`, at their
    /// capacities — all of it [`HeapBytes::index`].
    pub fn heap_bytes(&self) -> HeapBytes {
        HeapBytes {
            index: self.ids.heap_bytes() + self.prefixes.capacity() * size_of::<Ipv4Prefix>(),
            ..HeapBytes::default()
        }
    }
}

/// The prefixes in order — ids are not for printing.
impl fmt::Debug for PrefixIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter().map(|(p, _)| p)).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn index_ids_are_dense_stable_and_ordered_by_prefix_not_arrival() {
        let mut ix = PrefixIndex::new();
        let arrivals = ["30.0.0.0/8", "10.0.0.0/8", "10.1.0.0/16", "20.0.0.0/8"];
        for (i, x) in arrivals.iter().enumerate() {
            assert_eq!(ix.resolve(p(x)), i as PrefixId, "first sight");
        }
        assert_eq!(ix.resolve(p("10.1.0.0/16")), 2, "seen before");
        assert_eq!(ix.id(&p("20.0.0.0/8")), Some(3));
        assert_eq!(ix.id(&p("40.0.0.0/8")), None, "looking does not assign");
        assert_eq!((ix.len(), *ix.prefix(0)), (4, p("30.0.0.0/8")));
        let order: Vec<PrefixId> = ix.iter().map(|(_, id)| id).collect();
        assert_eq!(order, vec![1, 2, 3, 0]);
        let hits: Vec<PrefixId> = ix
            .iter_overlapping(0x0A000000, 0x14FFFFFF)
            .map(|(_, id)| id)
            .collect();
        assert_eq!(hits, vec![1, 2, 3]);
        assert_eq!(
            format!("{ix:?}"),
            "{10.0.0.0/8, 10.1.0.0/16, 20.0.0.0/8, 30.0.0.0/8}"
        );
    }

    #[test]
    fn longest_match() {
        let mut ix = PrefixIndex::new();
        let (coarse, fine) = (ix.resolve(p("10.0.0.0/8")), ix.resolve(p("10.1.0.0/16")));
        let any = |addr| ix.longest_match_where(addr, |_| true).map(|(_, id)| id);
        assert_eq!(any(0x0A010203), Some(fine));
        assert_eq!(any(0x0AFF0000), Some(coarse));
        assert_eq!(any(0x0B000000), None);
        let skipping = ix.longest_match_where(0x0A010203, |id| id != fine);
        assert_eq!(skipping, Some((p("10.0.0.0/8"), coarse)), "falls through");
    }

    /// One step of a [`Pages`] model run.
    #[derive(Clone, Debug)]
    enum Op {
        /// `grow_to(id)`, then write the value.
        Grow(PrefixId, u64),
        /// `get_mut(id)`, and write the value if the row is held.
        Set(PrefixId, u64),
        /// `get(id)`.
        Get(PrefixId),
        /// The id-order walk, read and compared whole.
        Walk,
        /// The id-order walk for writing: every row held goes up by one.
        Bump,
        /// A fresh column, as a restart leaves one.
        Clear,
    }

    /// Pages the ids of a model run spread over.
    const MODEL_PAGES: u32 = 4;

    fn arb_op() -> impl Strategy<Value = Op> {
        let id = 0..MODEL_PAGES * PAGE_ROWS as PrefixId;
        (0u8..40, id, any::<u64>()).prop_map(|(kind, id, v)| match kind {
            0..=17 => Op::Grow(id, v),
            18..=25 => Op::Set(id, v),
            26..=35 => Op::Get(id),
            36 => Op::Walk,
            37 | 38 => Op::Bump,
            _ => Op::Clear,
        })
    }

    /// The rows a column holds, as the page rules say: a row is held
    /// once written, and a page that reaches [`DENSE_AT`] rows holds
    /// all of them, unwritten ones as zero.
    #[derive(Default)]
    struct Model {
        rows: BTreeMap<PrefixId, u64>,
        went_dense: bool,
    }

    impl Model {
        fn grow_to(&mut self, id: PrefixId) -> &mut u64 {
            let page = id / PAGE_ROWS as PrefixId * PAGE_ROWS as PrefixId;
            let page = page..page + PAGE_ROWS as PrefixId;
            if !self.rows.contains_key(&id) && self.rows.range(page.clone()).count() + 1 == DENSE_AT
            {
                self.went_dense = true;
                for r in page {
                    self.rows.entry(r).or_default();
                }
            }
            self.rows.entry(id).or_default()
        }
    }

    proptest! {
        /// Random writes, reads, walks and clears over four pages agree
        /// with a `BTreeMap` at every step — the row held, its value,
        /// the count of rows held and the walks in id order — through
        /// the sparse → dense switch: each run fills one page in
        /// scattered order somewhere in its sequence.
        #[test]
        fn pages_agree_with_a_btreemap_through_the_dense_switch(
            mut ops in prop::collection::vec(arb_op(), 50..400),
            fill_at in 0usize..50,
            fill_page in 0..MODEL_PAGES,
        ) {
            // 167 is odd, so `k * 167 % 256` visits every row once.
            let fill = (0..PAGE_ROWS as PrefixId).map(|k| {
                Op::Grow(fill_page * PAGE_ROWS as PrefixId + k * 167 % 256, u64::from(k))
            });
            let tail = ops.split_off(fill_at.min(ops.len()));
            ops.extend(fill.chain(tail));
            let (mut pages, mut model) = (Pages::<u64>::default(), Model::default());
            for op in ops {
                match op {
                    Op::Grow(id, v) => {
                        *pages.grow_to(id) = v;
                        *model.grow_to(id) = v;
                    }
                    Op::Set(id, v) => {
                        let (row, held) = (pages.get_mut(id), model.rows.get_mut(&id));
                        prop_assert_eq!(row.is_some(), held.is_some(), "{}", id);
                        if let (Some(row), Some(held)) = (row, held) {
                            (*row, *held) = (v, v);
                        }
                    }
                    Op::Get(id) => prop_assert_eq!(pages.get(id), model.rows.get(&id)),
                    Op::Walk => {
                        let walk: Vec<(PrefixId, u64)> = pages.iter().map(|(id, v)| (id, *v)).collect();
                        let want: Vec<(PrefixId, u64)> = model.rows.iter().map(|(id, v)| (*id, *v)).collect();
                        prop_assert_eq!(walk, want);
                    }
                    Op::Bump => {
                        let mut want = model.rows.keys().copied();
                        for (id, v) in pages.iter_mut() {
                            prop_assert_eq!(Some(id), want.next());
                            *v = v.wrapping_add(1);
                        }
                        prop_assert_eq!(want.next(), None);
                        model.rows.values_mut().for_each(|v| *v = v.wrapping_add(1));
                    }
                    Op::Clear => {
                        pages = Pages::default();
                        model.rows.clear();
                    }
                }
                prop_assert_eq!(pages.rows(), model.rows.len());
            }
            prop_assert!(model.went_dense, "every run crosses the switch");
            let walk: Vec<(PrefixId, u64)> = pages.iter().map(|(id, v)| (id, *v)).collect();
            prop_assert!(walk.into_iter().eq(model.rows.into_iter()));
        }
    }
}
