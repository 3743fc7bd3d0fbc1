//! Arena-backed prefix-keyed storage: the common substrate under every
//! RIB table.
//!
//! A [`PrefixSlab`] couples a [`PrefixTrie`] *index* (prefix → dense
//! slot handle) with a contiguous slot arena holding the values. The
//! trie gives ordered traversal, longest-prefix match, and range
//! queries; the slab keeps the values themselves packed in a handful of
//! large allocations instead of one hash-table bucket per prefix, and
//! recycles freed slots through a free list so long churn runs do not
//! grow the arena.
//!
//! # Determinism contract
//!
//! This is the single key-ordering policy for all RIB storage (the old
//! tables mixed `BTreeMap` and `FxHashMap` layers and re-sorted at the
//! edges):
//!
//! * [`PrefixSlab::iter`] and [`PrefixSlab::iter_overlapping`] always
//!   yield prefixes in lexicographic `(addr, len)` order — the same
//!   total order as `Ipv4Prefix`'s `Ord` — independent of insertion
//!   history, removals, and free-list state. No caller needs to sort.
//! * Slot handles are *internal*: they depend on allocation history and
//!   must never leak into observable output. Every public API is keyed
//!   by prefix.

use bgp_types::{Ipv4Prefix, PrefixTrie};
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

    /// Longest-prefix match for a destination address among the values
    /// `pred` accepts; a rejected prefix falls through to the next
    /// shorter cover.
    pub fn longest_match_where(
        &self,
        addr: u32,
        pred: impl Fn(&T) -> bool,
    ) -> Option<(Ipv4Prefix, &T)> {
        let (p, &h) = self
            .index
            .longest_match_where(addr, |&h| pred(self.slot(h).1))?;
        Some((p, self.slot(h).1))
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

    /// Removes every entry for which `keep` returns `false`, passing
    /// each removed value to `on_remove`. Visits entries in
    /// lexicographic prefix order.
    pub fn retain(
        &mut self,
        mut keep: impl FnMut(&Ipv4Prefix, &mut T) -> bool,
        mut on_remove: impl FnMut(Ipv4Prefix, T),
    ) {
        // Two-pass: collect doomed prefixes (removal rewires the
        // index), then remove them; index iteration gives prefix order.
        let mut dead: Vec<Ipv4Prefix> = Vec::new();
        for (_, &h) in self.index.iter() {
            let (p, v) = self.slots[h as usize]
                .as_mut()
                .expect("indexed slot is live");
            if !keep(p, v) {
                dead.push(*p);
            }
        }
        for p in dead {
            if let Some(v) = self.remove(&p) {
                on_remove(p, v);
            }
        }
    }
}

impl<T> FromIterator<(Ipv4Prefix, T)> for PrefixSlab<T> {
    fn from_iter<I: IntoIterator<Item = (Ipv4Prefix, T)>>(iter: I) -> Self {
        let mut s = PrefixSlab::new();
        for (p, v) in iter {
            s.insert(p, v);
        }
        s
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
    fn longest_match() {
        let mut s: PrefixSlab<u8> = PrefixSlab::new();
        s.insert(p("10.0.0.0/8"), 8);
        s.insert(p("10.1.0.0/16"), 16);
        let any = |addr| s.longest_match_where(addr, |_| true).map(|(_, v)| *v);
        assert_eq!(any(0x0A010203), Some(16));
        assert_eq!(any(0x0AFF0000), Some(8));
        assert_eq!(any(0x0B000000), None);
        let coarse = s.longest_match_where(0x0A010203, |v| *v < 16);
        assert_eq!(coarse, Some((p("10.0.0.0/8"), &8)), "falls through");
    }

    #[test]
    fn retain_removes_in_order() {
        let mut s: PrefixSlab<u32> = PrefixSlab::new();
        for (i, x) in ["10.0.0.0/8", "20.0.0.0/8", "30.0.0.0/8"]
            .iter()
            .enumerate()
        {
            s.insert(p(x), i as u32);
        }
        let mut removed = Vec::new();
        s.retain(|_, v| *v != 1, |p, _| removed.push(p));
        assert_eq!(removed, vec![p("20.0.0.0/8")]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(&p("20.0.0.0/8")), None);
    }
}
