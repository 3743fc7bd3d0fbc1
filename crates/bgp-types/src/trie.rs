//! [`PrefixTable`], the one prefix-keyed table type: a hashed
//! [`PrefixMap`] plus the mask of the prefix lengths ever inserted.
//!
//! Every access a router makes per event is a point lookup, so the
//! table is hashed: `insert`, `get`, `remove` are one probe each.
//! Longest-prefix match probes each length in the mask, longest first —
//! one or two probes against a Tier-1 table of /24s. The mask is
//! grow-only: a removal leaves its length's bit set, which costs at
//! most one probe that misses, and keeps `remove` a single probe.
//!
//! Determinism contract: hash order never reaches a result.
//! [`PrefixTable::iter`] and [`PrefixTable::iter_overlapping`] collect
//! what they yield and sort it into lexicographic `(addr, len)` order —
//! `Ipv4Prefix`'s derived `Ord` — whatever the insertion history. The
//! sort is paid by reports, session resyncs and Address-Partition
//! reassignment, never per event. [`PrefixTable::values`] is in hash
//! order and serves order-insensitive sums only.
//!
//! The module keeps the name of the path-compressed trie it held until
//! every table moved to hashing (DESIGN.md §13); it is renamed when the
//! alias below goes.

use crate::fxhash::{table_bytes, PrefixMap};
use crate::prefix::Ipv4Prefix;
use std::fmt;

/// A map from [`Ipv4Prefix`] to `V` with exact lookup, removal,
/// longest-prefix match, and iteration in prefix order.
///
/// ```
/// use bgp_types::{Ipv4Prefix, PrefixTable};
/// let mut t = PrefixTable::new();
/// t.insert("10.0.0.0/8".parse().unwrap(), "coarse");
/// t.insert("10.1.0.0/16".parse().unwrap(), "fine");
/// let (p, v) = t.longest_match(0x0A010203).unwrap();
/// assert_eq!(*v, "fine");
/// assert_eq!(p.to_string(), "10.1.0.0/16");
/// ```
#[derive(Clone)]
pub struct PrefixTable<V> {
    map: PrefixMap<V>,
    /// Bit `l` set once a prefix of length `l` was inserted; cleared
    /// only by [`PrefixTable::clear`].
    lens: u64,
}

/// The table under the name the benchmark package's trie kernels
/// import; it goes with those kernel rows (ROADMAP item 3).
pub type PrefixTrie<V> = PrefixTable<V>;

impl<V> Default for PrefixTable<V> {
    fn default() -> Self {
        PrefixTable {
            map: PrefixMap::default(),
            lens: 0,
        }
    }
}

impl<V> PrefixTable<V> {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored prefixes.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Inserts `value` at `prefix`, returning the previous value if any.
    pub fn insert(&mut self, prefix: Ipv4Prefix, value: V) -> Option<V> {
        self.lens |= 1 << prefix.len();
        self.map.insert(prefix, value)
    }

    /// Exact-match lookup.
    #[inline]
    pub fn get(&self, prefix: &Ipv4Prefix) -> Option<&V> {
        self.map.get(prefix)
    }

    /// Exact-match mutable lookup.
    pub fn get_mut(&mut self, prefix: &Ipv4Prefix) -> Option<&mut V> {
        self.map.get_mut(prefix)
    }

    /// Returns the entry for `prefix`, inserting `default()` if absent:
    /// one probe, hit or miss.
    pub fn get_or_insert_with(
        &mut self,
        prefix: Ipv4Prefix,
        default: impl FnOnce() -> V,
    ) -> &mut V {
        let lens = &mut self.lens;
        self.map.entry(prefix).or_insert_with(|| {
            *lens |= 1 << prefix.len();
            default()
        })
    }

    /// Removes and returns the value at `prefix`.
    pub fn remove(&mut self, prefix: &Ipv4Prefix) -> Option<V> {
        self.map.remove(prefix)
    }

    /// Removes all entries, keeping the allocation.
    pub fn clear(&mut self) {
        self.map.clear();
        self.lens = 0;
    }

    /// The stored values in hash order: for sums and other
    /// order-insensitive folds only.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.map.values()
    }

    /// Longest-prefix match for a destination address: the most specific
    /// stored prefix covering `addr`.
    pub fn longest_match(&self, addr: u32) -> Option<(Ipv4Prefix, &V)> {
        self.longest_match_where(addr, |_| true)
    }

    /// Longest-prefix match among the stored values `pred` accepts: a
    /// rejected prefix is passed over as if it were not stored, so the
    /// match falls through to the next shorter cover. One probe per
    /// length in the mask, longest first.
    pub fn longest_match_where(
        &self,
        addr: u32,
        pred: impl Fn(&V) -> bool,
    ) -> Option<(Ipv4Prefix, &V)> {
        let mut lens = self.lens;
        while lens != 0 {
            let len = 63 - lens.leading_zeros();
            lens ^= 1 << len;
            let p = Ipv4Prefix::new(addr, len as u8);
            if let Some(v) = self.map.get(&p).filter(|v| pred(v)) {
                return Some((p, v));
            }
        }
        None
    }

    /// Iterates all `(prefix, value)` pairs in prefix order: a scan of
    /// the table, then a sort.
    pub fn iter(&self) -> impl Iterator<Item = (Ipv4Prefix, &V)> {
        sorted(self.map.iter())
    }

    /// Iterates the pairs whose prefix overlaps the inclusive address
    /// range `[range_start, range_end]` (Address Partitions), in the
    /// same order as [`PrefixTable::iter`]: a scan of the table, then a
    /// sort of the overlap.
    pub fn iter_overlapping(
        &self,
        range_start: u32,
        range_end: u32,
    ) -> impl Iterator<Item = (Ipv4Prefix, &V)> {
        let overlaps = |p: &Ipv4Prefix| p.first_addr() <= range_end && p.last_addr() >= range_start;
        sorted(self.map.iter().filter(|(p, _)| overlaps(p)))
    }

    /// Bytes the table's allocation holds, as the standard library's
    /// SwissTable lays it out (`fxhash::table_bytes`). What the values
    /// own on the heap is not counted.
    pub fn heap_bytes(&self) -> usize {
        table_bytes(&self.map)
    }
}

/// The one collect-then-sort: `pairs` in prefix order. `iter` hands it
/// the map's exact-size iterator, so the whole-table walk allocates
/// once.
fn sorted<'a, V>(
    pairs: impl Iterator<Item = (&'a Ipv4Prefix, &'a V)>,
) -> std::vec::IntoIter<(Ipv4Prefix, &'a V)> {
    let mut hits: Vec<(Ipv4Prefix, &V)> = pairs.map(|(p, v)| (*p, v)).collect();
    hits.sort_unstable_by_key(|&(p, _)| p);
    hits.into_iter()
}

/// The entries in prefix order.
impl<V: fmt::Debug> fmt::Debug for PrefixTable<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<V> FromIterator<(Ipv4Prefix, V)> for PrefixTable<V> {
    fn from_iter<I: IntoIterator<Item = (Ipv4Prefix, V)>>(iter: I) -> Self {
        let mut t = PrefixTable::new();
        for (p, v) in iter {
            t.insert(p, v);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn insert_get_remove() {
        let mut t = PrefixTable::new();
        assert_eq!(t.insert(p("10.0.0.0/8"), 1), None);
        assert_eq!(t.insert(p("10.0.0.0/8"), 2), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&p("10.0.0.0/8")), Some(&2));
        assert_eq!(t.get(&p("10.0.0.0/9")), None);
        assert_eq!(t.remove(&p("10.0.0.0/8")), Some(2));
        assert!(t.is_empty());
        assert_eq!(t.remove(&p("10.0.0.0/8")), None);
    }

    #[test]
    fn root_prefix_default_route() {
        let mut t = PrefixTable::new();
        t.insert(Ipv4Prefix::DEFAULT, "default");
        assert_eq!(t.get(&Ipv4Prefix::DEFAULT), Some(&"default"));
        let (pre, v) = t.longest_match(0x01020304).unwrap();
        assert_eq!(pre, Ipv4Prefix::DEFAULT);
        assert_eq!(*v, "default");
    }

    #[test]
    fn longest_match_prefers_specific() {
        let mut t = PrefixTable::new();
        t.insert(p("10.0.0.0/8"), 8);
        t.insert(p("10.1.0.0/16"), 16);
        t.insert(p("10.1.2.0/24"), 24);
        assert_eq!(t.longest_match(0x0A010203).map(|(_, v)| *v), Some(24));
        assert_eq!(t.longest_match(0x0A01FF00).map(|(_, v)| *v), Some(16));
        assert_eq!(t.longest_match(0x0AFF0000).map(|(_, v)| *v), Some(8));
        assert_eq!(t.longest_match(0x0B000000), None);
    }

    /// The mask is grow-only: a removed length stays in it, and its
    /// probe misses and falls through to the next length present — at
    /// both ends of the length range too.
    #[test]
    fn removed_length_falls_through_to_the_next_cover() {
        let mut t = PrefixTable::new();
        for (s, v) in [
            ("0.0.0.0/0", 0),
            ("10.1.0.0/16", 16),
            ("10.1.2.0/24", 24),
            ("10.1.2.3/32", 32),
            ("255.255.255.255/32", 33),
        ] {
            t.insert(p(s), v);
        }
        let at = |t: &PrefixTable<i32>, addr| t.longest_match(addr).map(|(q, v)| (q, *v));
        assert_eq!(at(&t, 0x0A010203), Some((p("10.1.2.3/32"), 32)));
        assert_eq!(at(&t, 0x0A010204), Some((p("10.1.2.0/24"), 24)));
        assert_eq!(t.remove(&p("10.1.2.0/24")), Some(24));
        assert_ne!(t.lens & 1 << 24, 0, "the /24 bit is still set");
        assert_eq!(at(&t, 0x0A010204), Some((p("10.1.0.0/16"), 16)));
        assert_eq!(at(&t, 0x0A010203), Some((p("10.1.2.3/32"), 32)));
        assert_eq!(at(&t, u32::MAX), Some((p("255.255.255.255/32"), 33)));
        assert_eq!(at(&t, 0x0B000000), Some((Ipv4Prefix::DEFAULT, 0)));
        assert_eq!(t.remove(&Ipv4Prefix::DEFAULT), Some(0));
        assert_eq!(at(&t, 0x0B000000), None);
    }

    #[test]
    fn iteration_in_order() {
        let mut t = PrefixTable::new();
        let prefixes = ["10.0.0.0/8", "9.0.0.0/8", "10.1.0.0/16", "0.0.0.0/0"];
        for (i, s) in prefixes.iter().enumerate() {
            t.insert(p(s), i);
        }
        let got: Vec<Ipv4Prefix> = t.iter().map(|(p, _)| p).collect();
        let mut sorted = got.clone();
        sorted.sort();
        assert_eq!(got, sorted);
        assert_eq!(got.len(), 4);
    }

    #[test]
    fn iter_overlapping_filters_by_range() {
        let mut t = PrefixTable::new();
        t.insert(p("10.0.0.0/8"), ());
        t.insert(p("20.0.0.0/8"), ());
        t.insert(p("30.0.0.0/8"), ());
        let hits: Vec<_> = t
            .iter_overlapping(0x0A000000, 0x14FFFFFF) // 10.0.0.0 - 20.255.255.255
            .map(|(p, _)| p.to_string())
            .collect();
        assert_eq!(hits, vec!["10.0.0.0/8", "20.0.0.0/8"]);
    }

    #[test]
    fn iter_overlapping_matches_filtered_full_iteration() {
        // Range iteration must agree exactly (contents and order) with
        // filtering the full iteration, including covering prefixes
        // that straddle the range boundary.
        let mut t = PrefixTable::new();
        for s in [
            "0.0.0.0/0",
            "10.0.0.0/8",
            "10.1.0.0/16",
            "10.1.2.0/24",
            "10.1.3.0/24",
            "10.128.0.0/9",
            "11.0.0.0/8",
            "192.168.0.0/16",
            "192.168.5.5/32",
            "255.255.255.255/32",
        ] {
            t.insert(p(s), s);
        }
        for (start, end) in [
            (0x0A010000u32, 0x0A01FFFFu32), // inside 10.1/16
            (0x0A010280, 0x0A010280),       // single host inside 10.1.2/24
            (0x00000000, 0xFFFFFFFF),       // everything
            (0xC0A80000, 0xC0A8FFFF),       // 192.168/16
            (0x0B000000, 0x0BFFFFFF),       // 11/8 only (plus default)
            (0x50000000, 0x5FFFFFFF),       // nothing but the default route
        ] {
            let ranged: Vec<_> = t.iter_overlapping(start, end).map(|(p, _)| p).collect();
            let filtered: Vec<_> = t
                .iter()
                .filter(|(p, _)| p.first_addr() <= end && p.last_addr() >= start)
                .map(|(p, _)| p)
                .collect();
            assert_eq!(ranged, filtered, "range {start:#x}..={end:#x}");
        }
    }

    #[test]
    fn get_or_insert_with() {
        let mut t: PrefixTable<Vec<u32>> = PrefixTable::new();
        t.get_or_insert_with(p("10.0.0.0/8"), Vec::new).push(1);
        t.get_or_insert_with(p("10.0.0.0/8"), Vec::new).push(2);
        assert_eq!(t.get(&p("10.0.0.0/8")), Some(&vec![1, 2]));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn remove_prunes_branches() {
        let mut t = PrefixTable::new();
        t.insert(p("10.1.2.0/24"), ());
        t.insert(p("10.0.0.0/8"), ());
        t.remove(&p("10.1.2.0/24"));
        assert_eq!(t.len(), 1);
        // The /8 must survive, and nothing names the /24 any more.
        assert!(t.get(&p("10.0.0.0/8")).is_some());
        assert!(t.get(&p("10.1.2.0/24")).is_none());
        let left: Vec<_> = t.iter().map(|(p, _)| p).collect();
        assert_eq!(left, vec![p("10.0.0.0/8")]);
    }

    #[test]
    fn covering_prefix_inserted_above_existing_node() {
        let mut t = PrefixTable::new();
        t.insert(p("10.1.2.0/24"), 24);
        t.insert(p("10.0.0.0/8"), 8); // the cover arrives second
        assert_eq!(t.get(&p("10.0.0.0/8")), Some(&8));
        assert_eq!(t.get(&p("10.1.2.0/24")), Some(&24));
        assert_eq!(t.longest_match(0x0A010203).map(|(_, v)| *v), Some(24));
        assert_eq!(t.longest_match(0x0A020000).map(|(_, v)| *v), Some(8));
        let order: Vec<_> = t.iter().map(|(p, _)| p).collect();
        assert_eq!(order, vec![p("10.0.0.0/8"), p("10.1.2.0/24")]);
    }

    #[test]
    fn divergence_at_first_and_last_bit() {
        // Bit 0: 10/8 and 192/8 share no leading bit.
        let mut t = PrefixTable::new();
        t.insert(p("10.0.0.0/8"), 0);
        t.insert(p("192.0.0.0/8"), 1);
        assert_eq!(t.longest_match(0x0A000001).map(|(_, v)| *v), Some(0));
        assert_eq!(t.longest_match(0xC0000001).map(|(_, v)| *v), Some(1));
        // Bit 31: two host routes that differ only in the last bit.
        let mut t = PrefixTable::new();
        t.insert(p("1.2.3.4/32"), 4);
        t.insert(p("1.2.3.5/32"), 5);
        assert_eq!(t.get(&p("1.2.3.4/31")), None);
        assert_eq!(t.longest_match(0x01020305).map(|(_, v)| *v), Some(5));
        assert_eq!(t.longest_match(0x01020306), None);
        // 9.2.3.4 differs from 1.2.3.4 only in its leading bits.
        assert_eq!(t.longest_match(0x09020304), None);
    }

    #[test]
    fn shortest_and_longest_keys() {
        let mut t = PrefixTable::new();
        t.insert(p("255.255.255.255/32"), 32);
        t.insert(Ipv4Prefix::DEFAULT, 0);
        t.insert(p("0.0.0.0/32"), 1);
        assert_eq!(t.longest_match(0).map(|(_, v)| *v), Some(1));
        assert_eq!(t.longest_match(u32::MAX).map(|(_, v)| *v), Some(32));
        assert_eq!(t.longest_match(7).map(|(_, v)| *v), Some(0));
        assert_eq!(t.remove(&Ipv4Prefix::DEFAULT), Some(0));
        assert_eq!(t.longest_match(7), None);
    }

    #[test]
    fn removal_merges_through_valueless_parent() {
        // Two sibling /24s under a /8: removing one leaves its sibling
        // and the cover, and its addresses fall through to the cover.
        let mut t = PrefixTable::new();
        t.insert(p("10.0.0.0/8"), 8);
        t.insert(p("10.1.2.0/24"), 2);
        t.insert(p("10.1.3.0/24"), 3);
        assert_eq!(t.remove(&p("10.1.2.0/24")), Some(2));
        assert_eq!(t.get(&p("10.1.3.0/24")), Some(&3));
        assert_eq!(t.longest_match(0x0A010200).map(|(_, v)| *v), Some(8));
        assert_eq!(t.longest_match(0x0A010300).map(|(_, v)| *v), Some(3));
    }

    #[test]
    fn removed_value_with_two_children_stays_as_branch() {
        // Removing a cover leaves the two more-specifics under it.
        let mut t = PrefixTable::new();
        t.insert(p("10.1.2.0/23"), 23);
        t.insert(p("10.1.2.0/24"), 2);
        t.insert(p("10.1.3.0/24"), 3);
        let bytes = t.heap_bytes();
        assert_eq!(t.remove(&p("10.1.2.0/23")), Some(23));
        assert_eq!(t.get(&p("10.1.2.0/23")), None);
        assert_eq!(t.remove(&p("10.1.2.0/23")), None);
        assert_eq!(t.len(), 2);
        assert_eq!(t.longest_match(0x0A010300).map(|(_, v)| *v), Some(3));
        // Re-inserting takes the freed bucket instead of growing.
        t.insert(p("10.1.2.0/23"), 9);
        assert_eq!(t.heap_bytes(), bytes);
    }

    #[test]
    fn churn_reuses_freed_indices() {
        let mut t = PrefixTable::new();
        for i in 0..64u32 {
            t.insert(Ipv4Prefix::new(i.wrapping_mul(0x9E37_79B9), 24), i);
        }
        let bytes = t.heap_bytes();
        for round in 0..50u32 {
            for i in 0..64u32 {
                let q = Ipv4Prefix::new(i.wrapping_mul(0x9E37_79B9), 24);
                assert_eq!(t.remove(&q), Some(i + round));
                assert_eq!(t.insert(q, i + round + 1), None);
            }
        }
        assert_eq!(t.len(), 64);
        assert_eq!(t.heap_bytes(), bytes, "the table grew under churn");
    }

    #[test]
    fn freed_slots_are_recycled() {
        let mut t = PrefixTable::new();
        t.insert(p("10.1.2.0/24"), 1);
        let high_water = t.heap_bytes();
        t.remove(&p("10.1.2.0/24"));
        t.insert(p("10.1.3.0/24"), 2);
        assert!(t.heap_bytes() <= high_water);
        assert_eq!(t.get(&p("10.1.3.0/24")), Some(&2));
        assert_eq!(t.get(&p("10.1.2.0/24")), None);
    }

    /// A value that records its own drop.
    struct Tracked {
        id: u32,
        drops: Rc<RefCell<Vec<u32>>>,
    }

    impl Drop for Tracked {
        fn drop(&mut self) {
            self.drops.borrow_mut().push(self.id);
        }
    }

    /// The table owns real values (RIB-Out path sets, eBGP session
    /// maps), not handles: each one it is given is handed back or
    /// dropped, exactly once, whatever the op.
    #[test]
    fn owned_values_are_dropped_exactly_once() {
        let drops = Rc::new(RefCell::new(Vec::new()));
        let mut made = 0;
        let mut make = || {
            made += 1;
            let drops = drops.clone();
            Tracked { id: made, drops }
        };
        let dropped = || drops.borrow().clone();
        let mut t = PrefixTable::new();
        for (i, x) in ["10.1.2.0/24", "10.1.3.0/24", "10.0.0.0/8"]
            .iter()
            .enumerate()
        {
            assert!(t.insert(p(x), make()).is_none());
            assert_eq!(t.len(), i + 1);
        }
        // Insert over an existing value hands the old one back.
        let old = t.insert(p("10.1.2.0/24"), make()).expect("replaced");
        assert_eq!((old.id, dropped()), (1, vec![]));
        drop(old);
        assert_eq!(dropped(), [1]);
        assert_eq!(t.len(), 3);
        // `get_or_insert_with` makes a value on a miss only.
        let hit = t.get_or_insert_with(p("10.1.3.0/24"), || unreachable!("a hit"));
        assert_eq!(hit.id, 2);
        assert_eq!(t.get_or_insert_with(p("192.168.0.0/16"), &mut make).id, 5);
        assert_eq!(t.len(), 4);
        // Removing hands the value back, undropped.
        let gone = t.remove(&p("10.1.3.0/24")).expect("stored");
        assert_eq!(gone.id, 2);
        assert_eq!(dropped(), [1]);
        drop(gone);
        assert_eq!(t.len(), 3);
        // A new entry takes the freed bucket.
        let bytes = t.heap_bytes();
        assert!(t.insert(p("10.1.4.0/24"), make()).is_none());
        assert_eq!((t.heap_bytes(), t.len()), (bytes, 4));
        // `clear` drops all that is left, and dropping the table nothing.
        t.clear();
        assert!(t.is_empty());
        drop(t);
        let mut all = dropped();
        all.sort_unstable();
        assert_eq!(all, (1..=made).collect::<Vec<_>>(), "each once");
    }

    #[test]
    fn host_routes() {
        let mut t = PrefixTable::new();
        t.insert(p("1.2.3.4/32"), 42);
        assert_eq!(t.longest_match(0x01020304).map(|(_, v)| *v), Some(42));
        assert_eq!(t.longest_match(0x01020305), None);
    }
}
