//! Prefix-keyed storage: one table type, [`PrefixTable`], in two
//! roles, and order from its sort wherever order is observed.
//!
//! * A [`PrefixIndex`] maps prefix → dense [`PrefixId`] and back: a
//!   `PrefixTable<PrefixId>` plus the id → prefix `Vec`. A router keeps
//!   *one*, and its full tables (every Adj-RIB-In, the Loc-RIB) are
//!   plain `Vec` columns indexed by that id
//!   ([`crate::rib::RibInColumn`], [`crate::rib::LocColumn`]): one
//!   hashed probe per received update, array reads after it, and no
//!   table carries an index or a stored prefix of its own. Ids are
//!   handed out on first sight and never recycled; index and columns
//!   are dropped together (a router restart).
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
    /// Column row arrays.
    pub slots: usize,
    /// What the rows and trie values own: an Adj-RIB-In row's run of
    /// entries, a RIB-Out `PathSet`.
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

/// One router's prefix index: a [`PrefixTable`] from prefix to dense
/// [`PrefixId`] and the `Vec` that maps back. Grow-only: an id, once
/// handed out, names its prefix until the whole index is dropped.
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
}
