//! Prefix-keyed storage: one hashed map type, [`PrefixMap`], in two
//! roles, and order from a sort wherever order is observed.
//!
//! * A [`PrefixIndex`] maps prefix → dense [`PrefixId`] and back. A
//!   router keeps *one*, and its full tables (every Adj-RIB-In, the
//!   Loc-RIB) are plain `Vec` columns indexed by that id
//!   ([`crate::rib::RibInColumn`], [`crate::rib::LocColumn`]): one
//!   hashed probe per received update, array reads after it, and no
//!   table carries an index or a stored prefix of its own. Ids are
//!   handed out on first sight and never recycled; index and columns
//!   are dropped together (a router restart).
//! * A *sparse* table — the per-group Adj-RIB-Out, the eBGP Adj-RIB-In —
//!   is a private `PrefixMap<T>` holding its values in its buckets: it
//!   covers a small share of a router's prefixes, where a dense column
//!   would cost more than the small map (DESIGN.md §13).
//!
//! Every per-event access is a point lookup, so the maps are hashed:
//! no event pays for order. Longest-prefix match probes the lengths
//! the index holds, longest first. [`PrefixMap`]'s hasher is
//! [`bgp_types::PrefixHasher`], not Fx: Fx leaves a prefix's low hash
//! bits to its length and host zeros and piles a Tier-1 table onto a
//! few buckets (see `bgp_types::fxhash`). `PrefixTrie` stays in
//! `bgp-types` for the benchmark's trie kernels only; no table here
//! uses it.
//!
//! # Determinism contract
//!
//! This is the single key-ordering policy for all RIB storage:
//!
//! * [`PrefixIndex::iter`], [`PrefixIndex::iter_overlapping`] and every
//!   ordered walk of a sparse table ([`crate::rib::AdjRibOut::iter_group`],
//!   [`crate::rib::AdjRibOut::export_walk`]) yield prefixes in
//!   lexicographic `(addr, len)` order — `Ipv4Prefix`'s `Ord` — by
//!   sorting what they collect, independent of insertion history. Hash
//!   iteration order never reaches a result. The sort is paid by
//!   reports, session resyncs and Address-Partition reassignment, never
//!   per event.
//! * Prefix ids depend on arrival order and must never reach observable
//!   output: anything order-observable sorts by prefix and filters on
//!   the column, and nothing prints an id.

use bgp_types::{Ipv4Prefix, PrefixMap};
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
    /// Trie arenas and their free lists — a sparse table's arena holds
    /// its values inline — and the index's id → prefix `Vec`.
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

/// One router's prefix index: a hashed map from prefix to dense
/// [`PrefixId`], the `Vec` that maps back, and a mask of the prefix
/// lengths present. Grow-only: an id, once handed out, names its
/// prefix until the whole index is dropped.
#[derive(Clone, Default)]
pub struct PrefixIndex {
    ids: PrefixMap<PrefixId>,
    prefixes: Vec<Ipv4Prefix>,
    /// Bit `l` set when a prefix of length `l` was resolved.
    lens: u64,
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
        let lens = &mut self.lens;
        *self.ids.entry(prefix).or_insert_with(|| {
            prefixes.push(prefix);
            *lens |= 1 << prefix.len();
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
        self.iter_overlapping(0, u32::MAX)
    }

    /// Iterates the prefixes overlapping the inclusive address range,
    /// in the same order as [`PrefixIndex::iter`]: one scan of the
    /// index, then a sort of the overlap.
    pub fn iter_overlapping(
        &self,
        range_start: u32,
        range_end: u32,
    ) -> impl Iterator<Item = (&Ipv4Prefix, PrefixId)> {
        let mut hits: Vec<(Ipv4Prefix, PrefixId)> = (0..)
            .zip(&self.prefixes)
            .filter(|(_, p)| p.first_addr() <= range_end && p.last_addr() >= range_start)
            .map(|(id, p)| (*p, id))
            .collect();
        hits.sort_unstable();
        hits.into_iter().map(|(_, id)| (self.prefix(id), id))
    }

    /// Longest-prefix match for a destination address among the ids
    /// `pred` accepts; a rejected prefix falls through to the next
    /// shorter cover. One probe per prefix length present, longest
    /// first.
    pub fn longest_match_where(
        &self,
        addr: u32,
        pred: impl Fn(PrefixId) -> bool,
    ) -> Option<(Ipv4Prefix, PrefixId)> {
        let mut lens = self.lens;
        while lens != 0 {
            let len = 63 - lens.leading_zeros();
            lens ^= 1 << len;
            let p = Ipv4Prefix::new(addr, len as u8);
            if let Some(id) = self.id(&p).filter(|&id| pred(id)) {
                return Some((p, id));
            }
        }
        None
    }

    /// Heap bytes of the hashed map and the id → prefix `Vec`, at their
    /// capacities — all of it [`HeapBytes::index`].
    pub fn heap_bytes(&self) -> HeapBytes {
        HeapBytes {
            index: map_bytes(&self.ids) + self.prefixes.capacity() * size_of::<Ipv4Prefix>(),
            ..HeapBytes::default()
        }
    }
}

/// Bytes a [`PrefixMap`]'s table allocation holds, as the standard
/// library's SwissTable lays it out: one `(key, value)` slot and one
/// control byte per bucket, the slots padded to the control group's
/// alignment, and one trailing control group mirroring the first.
/// What the entries own on the heap is not counted.
///
/// The map reports its usable capacity, not its bucket count; the two
/// are tied — at most 7/8 of the buckets (all but one below 8) — and
/// the bucket count is the power of two that capacity belongs to. A
/// removal that leaves a tombstone lowers the capacity reported until
/// the next rehash, so the smallest power of two whose capacity covers
/// it is taken, which is exact unless tombstones fill nearly half the
/// table.
pub fn map_bytes<V>(map: &PrefixMap<V>) -> usize {
    /// SwissTable control group width: SSE2 on x86, a word elsewhere.
    const GROUP: usize = if cfg!(any(target_arch = "x86", target_arch = "x86_64")) {
        16
    } else {
        8
    };
    let cap = map.capacity();
    if cap == 0 {
        return 0;
    }
    let usable = |buckets: usize| {
        if buckets < 8 {
            buckets - 1
        } else {
            buckets / 8 * 7
        }
    };
    let mut buckets = 4;
    while usable(buckets) < cap {
        buckets *= 2;
    }
    let slot = size_of::<(Ipv4Prefix, V)>();
    let align = GROUP.max(std::mem::align_of::<(Ipv4Prefix, V)>());
    (buckets * slot).next_multiple_of(align) + buckets + GROUP
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
