//! Prefix-keyed storage: the common substrate under every RIB table.
//!
//! Two arrangements, one [`PrefixTrie`] underneath both:
//!
//! * A [`PrefixIndex`] maps prefix → dense [`PrefixId`] and back. A
//!   router keeps *one*, and its full tables (every Adj-RIB-In, the
//!   Loc-RIB) are plain `Vec` columns indexed by that id
//!   ([`crate::rib::RibInColumn`], [`crate::rib::LocColumn`]): one trie
//!   walk per received update, array reads after it, and no table
//!   carries an index or a stored prefix of its own. Ids are handed out
//!   on first sight and never recycled; index and columns are dropped
//!   together (a router restart).
//! * A [`PrefixSlab`] couples a private trie (prefix → slot handle)
//!   with a slot arena and a free list. It is what a *sparse* table
//!   uses — the per-group Adj-RIB-Out and the eBGP Adj-RIB-In hold a
//!   small share of a router's prefixes, where a dense column would
//!   cost more than the small trie it saves (DESIGN.md §13).
//!
//! # Determinism contract
//!
//! This is the single key-ordering policy for all RIB storage:
//!
//! * [`PrefixIndex::iter`], [`PrefixSlab::iter`] and their
//!   `iter_overlapping` always yield prefixes in lexicographic
//!   `(addr, len)` order — the same total order as `Ipv4Prefix`'s
//!   `Ord` — independent of insertion history. No caller needs to sort.
//! * Prefix ids and slot handles depend on arrival order and must never
//!   reach observable output: anything order-observable walks the trie
//!   and filters on the column, and nothing prints an id.

use bgp_types::{Ipv4Prefix, PrefixTrie};
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
    /// Trie index arenas and their free lists.
    pub index: usize,
    /// Slot arenas and their free lists.
    pub slots: usize,
    /// What the slot values own: an Adj-RIB-In slot's run of entries, a
    /// RIB-Out slot's `PathSet`.
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

/// One router's prefix index: a Patricia trie from prefix to dense
/// [`PrefixId`], and the `Vec` that maps back. Grow-only: an id, once
/// handed out, names its prefix until the whole index is dropped.
#[derive(Clone, Default)]
pub struct PrefixIndex {
    ids: PrefixTrie<PrefixId>,
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
    /// trie walk, hit or miss.
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

    /// Iterates `(prefix, id)` in lexicographic prefix order.
    pub fn iter(&self) -> impl Iterator<Item = (&Ipv4Prefix, PrefixId)> {
        self.iter_overlapping(0, u32::MAX)
    }

    /// Iterates the prefixes overlapping the inclusive address range,
    /// in the same order as [`PrefixIndex::iter`], pruning disjoint
    /// subtrees.
    pub fn iter_overlapping(
        &self,
        range_start: u32,
        range_end: u32,
    ) -> impl Iterator<Item = (&Ipv4Prefix, PrefixId)> {
        self.ids
            .iter_overlapping(range_start, range_end)
            .map(|(_, &id)| (self.prefix(id), id))
    }

    /// Longest-prefix match for a destination address among the ids
    /// `pred` accepts; a rejected prefix falls through to the next
    /// shorter cover.
    pub fn longest_match_where(
        &self,
        addr: u32,
        pred: impl Fn(PrefixId) -> bool,
    ) -> Option<(Ipv4Prefix, PrefixId)> {
        let (p, &id) = self.ids.longest_match_where(addr, |&id| pred(id))?;
        Some((p, id))
    }

    /// Live trie nodes (an occupancy gauge; interior nodes included):
    /// at most `2 * len() + 1`.
    pub fn index_nodes(&self) -> usize {
        self.ids.node_count()
    }

    /// Heap bytes of the trie arena and the id → prefix `Vec`, at their
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

/// A map from [`Ipv4Prefix`] to `T`: trie-indexed, slab-backed, with
/// ordered iteration and range queries. See the module docs for the
/// determinism contract.
#[derive(Clone, Debug)]
pub struct PrefixSlab<T> {
    index: PrefixTrie<u32>,
    slots: Vec<Option<(Ipv4Prefix, T)>>,
    free: Vec<u32>,
}

impl<T> Default for PrefixSlab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> PrefixSlab<T> {
    /// Creates an empty slab.
    pub fn new() -> Self {
        PrefixSlab {
            index: PrefixTrie::new(),
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Number of stored prefixes.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Live trie nodes in the index (an occupancy gauge; interior nodes
    /// included).
    pub fn index_nodes(&self) -> usize {
        self.index.node_count()
    }

    /// Allocated slot-arena capacity, including free-listed slots (an
    /// occupancy gauge: live slots are [`PrefixSlab::len`]).
    pub fn slot_capacity(&self) -> usize {
        self.slots.len()
    }

    /// Heap bytes held by the index and the slot arena with its free
    /// list (capacities: what the allocator was asked for). Whatever
    /// the values own beyond their inline size is the caller's to add,
    /// as [`HeapBytes::paths`].
    pub fn heap_bytes(&self) -> HeapBytes {
        HeapBytes {
            index: self.index.heap_bytes(),
            slots: self.slots.capacity() * size_of::<Option<(Ipv4Prefix, T)>>()
                + self.free.capacity() * size_of::<u32>(),
            paths: 0,
        }
    }

    /// Inserts `value` at `prefix`, returning the displaced value if any.
    pub fn insert(&mut self, prefix: Ipv4Prefix, value: T) -> Option<T> {
        let mut value = Some(value);
        let slot = self.get_or_insert_with(prefix, || value.take().expect("called once"));
        // Still here: the prefix had a slot, which did not take it.
        value.map(|v| std::mem::replace(slot, v))
    }

    /// Removes and returns the value at `prefix`; its slot is recycled.
    pub fn remove(&mut self, prefix: &Ipv4Prefix) -> Option<T> {
        let h = self.index.remove(prefix)?;
        self.free.push(h);
        let (_, v) = self.slots[h as usize].take().expect("indexed slot is live");
        Some(v)
    }

    /// Exact-match lookup.
    pub fn get(&self, prefix: &Ipv4Prefix) -> Option<&T> {
        let h = *self.index.get(prefix)?;
        self.slots[h as usize].as_ref().map(|(_, v)| v)
    }

    /// Exact-match mutable lookup.
    pub fn get_mut(&mut self, prefix: &Ipv4Prefix) -> Option<&mut T> {
        let h = *self.index.get(prefix)?;
        self.slots[h as usize].as_mut().map(|(_, v)| v)
    }

    /// Returns the entry for `prefix`, inserting `default()` if absent:
    /// one index walk, hit or miss.
    pub fn get_or_insert_with(
        &mut self,
        prefix: Ipv4Prefix,
        default: impl FnOnce() -> T,
    ) -> &mut T {
        let (slots, free) = (&mut self.slots, &mut self.free);
        let h = *self.index.get_or_insert_with(prefix, || {
            let slot = Some((prefix, default()));
            match free.pop() {
                Some(h) => {
                    slots[h as usize] = slot;
                    h
                }
                None => {
                    slots.push(slot);
                    (slots.len() - 1) as u32
                }
            }
        });
        let slot = self.slots[h as usize].as_mut();
        &mut slot.expect("indexed slot is live").1
    }

    /// The live slot behind an index handle.
    fn slot(&self, h: u32) -> (&Ipv4Prefix, &T) {
        let slot = self.slots[h as usize].as_ref();
        let (p, v) = slot.expect("indexed slot is live");
        (p, v)
    }

    /// Iterates `(prefix, value)` in lexicographic prefix order.
    pub fn iter(&self) -> impl Iterator<Item = (&Ipv4Prefix, &T)> {
        self.iter_overlapping(0, u32::MAX)
    }

    /// Iterates entries overlapping the inclusive address range, in the
    /// same order as [`PrefixSlab::iter`], pruning disjoint subtrees.
    pub fn iter_overlapping(
        &self,
        range_start: u32,
        range_end: u32,
    ) -> impl Iterator<Item = (&Ipv4Prefix, &T)> {
        self.index
            .iter_overlapping(range_start, range_end)
            .map(|(_, &h)| self.slot(h))
    }

    /// Removes all entries, retaining the slot arena's capacity.
    pub fn clear(&mut self) {
        self.index.clear();
        self.free.clear();
        self.slots.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn insert_get_remove_recycle() {
        let mut s: PrefixSlab<u32> = PrefixSlab::new();
        assert_eq!(s.insert(p("10.0.0.0/8"), 1), None);
        assert_eq!(s.insert(p("10.0.0.0/8"), 2), Some(1));
        assert_eq!(s.get(&p("10.0.0.0/8")), Some(&2));
        assert_eq!(s.len(), 1);
        assert_eq!(s.remove(&p("10.0.0.0/8")), Some(2));
        assert!(s.is_empty());
        // The freed slot is reused, not appended.
        s.insert(p("11.0.0.0/8"), 3);
        assert_eq!(s.slot_capacity(), 1);
    }

    #[test]
    fn ordered_iteration_independent_of_insertion_order() {
        let mut s: PrefixSlab<usize> = PrefixSlab::new();
        let prefixes = ["30.0.0.0/8", "10.0.0.0/8", "10.1.0.0/16", "20.0.0.0/8"];
        for (i, x) in prefixes.iter().enumerate() {
            s.insert(p(x), i);
        }
        s.remove(&p("20.0.0.0/8"));
        s.insert(p("20.0.0.0/8"), 9); // recycled slot, order must not change
        let got: Vec<Ipv4Prefix> = s.iter().map(|(p, _)| *p).collect();
        let mut sorted = got.clone();
        sorted.sort();
        assert_eq!(got, sorted);
        assert_eq!(got.len(), 4);
    }

    #[test]
    fn range_iteration() {
        let mut s: PrefixSlab<()> = PrefixSlab::new();
        for x in ["10.0.0.0/8", "20.0.0.0/8", "30.0.0.0/8"] {
            s.insert(p(x), ());
        }
        let hits: Vec<String> = s
            .iter_overlapping(0x0A000000, 0x14FFFFFF)
            .map(|(p, _)| p.to_string())
            .collect();
        assert_eq!(hits, vec!["10.0.0.0/8", "20.0.0.0/8"]);
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
}
