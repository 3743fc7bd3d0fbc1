//! A path-compressed binary prefix trie keyed by [`Ipv4Prefix`].
//!
//! It held every RIB table until those moved to the hashed
//! [`crate::PrefixMap`]; it stays for the benchmark's trie kernels.
//! It is a Patricia trie: a node carries the whole prefix it stands
//! for, and a link skips every bit at which nothing branches, so only
//! two kinds of node exist — a stored prefix, or a valueless branch
//! with two children at the longest prefix both share. The root
//! (`0.0.0.0/0`, arena index 0) is always present. A trie of N prefixes
//! therefore has at most 2N + 1 nodes *whatever the address
//! distribution*, and a walk makes about log₂ N dependent loads rather
//! than one per prefix bit. That independence is the point: the Tier-1
//! tables this repo generates scatter their /24s over the whole address
//! space, where one node per bit costs 14.3 nodes per prefix (measured:
//! 21 404 nodes for a 1 500-prefix table) and made the index, then held
//! three times over by every router, the largest term of the live heap
//! (EXPERIMENTS.md "Where the bytes were: the prefix index").
//!
//! Nodes live in a single arena `Vec` and link to children by `u32`
//! index, with a free list for recycling, so a trie is two contiguous
//! allocations and long churn does not grow the arena.
//!
//! Determinism contract: iteration is always in lexicographic
//! `(addr, len)` order — identical to `Ipv4Prefix`'s derived `Ord` —
//! regardless of insertion order, removals, or free-list state. It is
//! the pre-order walk, child 0 before child 1: a node's prefix strictly
//! covers its children's, so it shares their leading address bits with
//! zeros below and a shorter length (it sorts first), and everything
//! under child 0 has a 0 where everything under child 1 has a 1. Range
//! iteration ([`PrefixTrie::iter_overlapping`]) preserves that order
//! while pruning non-overlapping subtrees.

use crate::prefix::Ipv4Prefix;
use std::fmt;
use std::mem::size_of;

/// Arena null-link sentinel.
const NONE: u32 = u32::MAX;

#[derive(Clone)]
struct Node<T> {
    /// The prefix this node stands for: the path is not implied by the
    /// links, which skip bits.
    prefix: Ipv4Prefix,
    value: Option<T>,
    /// Indexed by the first bit below `prefix.len()`.
    children: [u32; 2],
}

impl<T> Node<T> {
    fn new(prefix: Ipv4Prefix) -> Self {
        Node {
            prefix,
            value: None,
            children: [NONE, NONE],
        }
    }
}

/// A map from [`Ipv4Prefix`] to `T` supporting exact lookup, removal,
/// longest-prefix match, and in-order iteration.
///
/// ```
/// use bgp_types::{Ipv4Prefix, PrefixTrie};
/// let mut t = PrefixTrie::new();
/// t.insert("10.0.0.0/8".parse().unwrap(), "coarse");
/// t.insert("10.1.0.0/16".parse().unwrap(), "fine");
/// let (p, v) = t.longest_match(0x0A010203).unwrap();
/// assert_eq!(*v, "fine");
/// assert_eq!(p.to_string(), "10.1.0.0/16");
/// ```
#[derive(Clone)]
pub struct PrefixTrie<T> {
    /// Node arena; index 0 is always the root, `0.0.0.0/0`. Every other
    /// live node carries a value or has two children.
    nodes: Vec<Node<T>>,
    /// Recycled arena slots available for reuse.
    free: Vec<u32>,
    len: usize,
}

impl<T> Default for PrefixTrie<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> PrefixTrie<T> {
    /// Creates an empty trie.
    pub fn new() -> Self {
        PrefixTrie {
            nodes: vec![Node::new(Ipv4Prefix::DEFAULT)],
            free: Vec::new(),
            len: 0,
        }
    }

    /// Number of stored prefixes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the trie is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of live arena nodes (stored prefixes, valueless branches
    /// and the root), an occupancy measure for observability: at most
    /// `2 * len() + 1`.
    pub fn node_count(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Heap bytes held by the arena and the free list (capacity, not
    /// length: what the allocator was asked for).
    pub fn heap_bytes(&self) -> usize {
        self.nodes.capacity() * size_of::<Node<T>>() + self.free.capacity() * size_of::<u32>()
    }

    fn alloc(&mut self, prefix: Ipv4Prefix) -> u32 {
        let node = Node::new(prefix);
        if let Some(i) = self.free.pop() {
            self.nodes[i as usize] = node;
            i
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        }
    }

    /// Walks to the node for `prefix`, creating it if missing, and
    /// returns its arena index. A created node is valueless: the caller
    /// stores a value before returning.
    fn walk_alloc(&mut self, prefix: Ipv4Prefix) -> u32 {
        // Invariant: `nodes[idx].prefix` covers `prefix`.
        let mut idx = 0u32;
        loop {
            let at = self.nodes[idx as usize].prefix;
            if at.len() == prefix.len() {
                return idx;
            }
            let b = prefix.bit(at.len()) as usize;
            let child = self.nodes[idx as usize].children[b];
            if child == NONE {
                let leaf = self.alloc(prefix);
                self.nodes[idx as usize].children[b] = leaf;
                return leaf;
            }
            let below = self.nodes[child as usize].prefix;
            if below.contains(&prefix) {
                idx = child;
                continue;
            }
            // `prefix` parts from the child's prefix after `c` common
            // bits (`at.len() < c < below.len()`): a node at the common
            // `c`-bit prefix takes the child's place above it. That node
            // is `prefix` itself when `prefix` covers the child, and
            // otherwise a valueless branch with a new leaf on its other
            // side.
            let c = ((below.addr() ^ prefix.addr()).leading_zeros() as u8).min(prefix.len());
            let mid = self.alloc(Ipv4Prefix::new(prefix.addr(), c));
            self.nodes[mid as usize].children[below.bit(c) as usize] = child;
            self.nodes[idx as usize].children[b] = mid;
            if c == prefix.len() {
                return mid;
            }
            let leaf = self.alloc(prefix);
            self.nodes[mid as usize].children[prefix.bit(c) as usize] = leaf;
            return leaf;
        }
    }

    /// Walks to the node for `prefix` without allocating. Skipped bits
    /// are checked once, by the comparison at the end.
    fn walk(&self, prefix: &Ipv4Prefix) -> Option<u32> {
        let mut idx = 0u32;
        loop {
            let at = self.nodes[idx as usize].prefix;
            if at.len() >= prefix.len() {
                return (at == *prefix).then_some(idx);
            }
            idx = self.nodes[idx as usize].children[prefix.bit(at.len()) as usize];
            if idx == NONE {
                return None;
            }
        }
    }

    /// Inserts `value` at `prefix`, returning the previous value if any.
    pub fn insert(&mut self, prefix: Ipv4Prefix, value: T) -> Option<T> {
        let idx = self.walk_alloc(prefix);
        let old = self.nodes[idx as usize].value.replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Exact-match lookup.
    pub fn get(&self, prefix: &Ipv4Prefix) -> Option<&T> {
        let idx = self.walk(prefix)?;
        self.nodes[idx as usize].value.as_ref()
    }

    /// Exact-match mutable lookup.
    pub fn get_mut(&mut self, prefix: &Ipv4Prefix) -> Option<&mut T> {
        let idx = self.walk(prefix)?;
        self.nodes[idx as usize].value.as_mut()
    }

    /// Returns the entry for `prefix`, inserting `default()` if absent.
    pub fn get_or_insert_with(
        &mut self,
        prefix: Ipv4Prefix,
        default: impl FnOnce() -> T,
    ) -> &mut T {
        let idx = self.walk_alloc(prefix);
        let node = &mut self.nodes[idx as usize];
        if node.value.is_none() {
            node.value = Some(default());
            self.len += 1;
        }
        node.value.as_mut().expect("just inserted")
    }

    /// Removes and returns the value at `prefix`. A node left without a
    /// value and with fewer than two children is spliced out and its
    /// arena slot goes on the free list for reuse.
    pub fn remove(&mut self, prefix: &Ipv4Prefix) -> Option<T> {
        let (mut grand, mut parent, mut idx) = (NONE, NONE, 0u32);
        loop {
            let at = self.nodes[idx as usize].prefix;
            if at.len() >= prefix.len() {
                if at != *prefix {
                    return None;
                }
                break;
            }
            let child = self.nodes[idx as usize].children[prefix.bit(at.len()) as usize];
            if child == NONE {
                return None;
            }
            (grand, parent, idx) = (parent, idx, child);
        }
        let out = self.nodes[idx as usize].value.take()?;
        self.len -= 1;
        // Splicing out a childless node costs its parent a child, so
        // the parent gets the same test; the grandparent only ever sees
        // one child replaced by another, so one level suffices.
        self.splice_out(idx, parent);
        self.splice_out(parent, grand);
        Some(out)
    }

    /// Unlinks `idx` if it no longer earns its place — no value and
    /// fewer than two children — handing its only child, if any, to
    /// `parent`. The root stays whatever it holds.
    fn splice_out(&mut self, idx: u32, parent: u32) {
        if parent == NONE || self.nodes[idx as usize].value.is_some() {
            return;
        }
        let ([only, NONE] | [NONE, only]) = self.nodes[idx as usize].children else {
            return;
        };
        for link in &mut self.nodes[parent as usize].children {
            if *link == idx {
                *link = only;
            }
        }
        self.free.push(idx);
    }

    /// Longest-prefix match for a destination address: the most specific
    /// stored prefix covering `addr`.
    pub fn longest_match(&self, addr: u32) -> Option<(Ipv4Prefix, &T)> {
        self.longest_match_where(addr, |_| true)
    }

    /// Longest-prefix match among the stored values `pred` accepts: a
    /// rejected prefix is passed over as if it were not stored, so the
    /// match falls through to the next shorter cover.
    pub fn longest_match_where(
        &self,
        addr: u32,
        pred: impl Fn(&T) -> bool,
    ) -> Option<(Ipv4Prefix, &T)> {
        let mut idx = 0u32;
        // The node, not its (prefix, value): one word to carry down.
        let mut best: Option<&Node<T>> = None;
        loop {
            let node = &self.nodes[idx as usize];
            // The link followed here skipped bits: only the node's own
            // prefix says whether it still covers `addr`.
            if !node.prefix.contains_addr(addr) {
                break;
            }
            if node.value.as_ref().is_some_and(&pred) {
                best = Some(node);
            }
            if node.prefix.len() == 32 {
                break;
            }
            idx = node.children[((addr >> (31 - node.prefix.len())) & 1) as usize];
            if idx == NONE {
                break;
            }
        }
        best.and_then(|n| n.value.as_ref().map(|v| (n.prefix, v)))
    }

    /// Iterates all `(prefix, value)` pairs in trie (lexicographic) order.
    pub fn iter(&self) -> Iter<'_, T> {
        self.iter_overlapping(0, u32::MAX)
    }

    /// Iterates pairs whose prefix overlaps the address range
    /// `[range_start, range_end]` (used for Address Partitions), in the
    /// same lexicographic order as [`PrefixTrie::iter`]. Subtrees whose
    /// address span misses the range are pruned without being visited,
    /// so cost scales with the overlap, not the table size.
    pub fn iter_overlapping(&self, range_start: u32, range_end: u32) -> Iter<'_, T> {
        Iter {
            trie: self,
            stack: vec![0],
            range: (range_start, range_end),
        }
    }

    /// Removes all entries.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.nodes.push(Node::new(Ipv4Prefix::DEFAULT));
        self.free.clear();
        self.len = 0;
    }

    /// Panics unless the structure is well formed: the root is
    /// `0.0.0.0/0` at index 0; every other reachable node has a value or
    /// two children; a child is strictly longer than, contained in, and
    /// on the right bit of its parent; reachable + free = arena length;
    /// `node_count() <= 2 * len() + 1`. For tests.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        assert_eq!(self.nodes[0].prefix, Ipv4Prefix::DEFAULT, "root prefix");
        let (mut reachable, mut valued) = (0usize, 0usize);
        let mut stack = vec![0u32];
        while let Some(idx) = stack.pop() {
            let node = &self.nodes[idx as usize];
            let at = node.prefix;
            reachable += 1;
            valued += node.value.is_some() as usize;
            assert!(
                idx == 0 || node.value.is_some() || !node.children.contains(&NONE),
                "{at}: valueless with fewer than two children"
            );
            for (b, &child) in node.children.iter().enumerate() {
                if child == NONE {
                    continue;
                }
                let below = self.nodes[child as usize].prefix;
                assert!(
                    below.len() > at.len()
                        && at.contains(&below)
                        && below.bit(at.len()) as usize == b,
                    "{below} misplaced as child {b} of {at}"
                );
                stack.push(child);
            }
        }
        assert_eq!(valued, self.len, "len");
        assert_eq!(reachable + self.free.len(), self.nodes.len(), "arena leak");
        assert!(self.node_count() <= 2 * self.len + 1, "2N + 1 bound");
    }
}

/// In-order iterator over a [`PrefixTrie`], optionally restricted to an
/// address range.
pub struct Iter<'a, T> {
    trie: &'a PrefixTrie<T>,
    /// Arena indices of subtrees still to visit, next one last.
    stack: Vec<u32>,
    /// Inclusive `[start, end]` address-range restriction.
    range: (u32, u32),
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = (Ipv4Prefix, &'a T);

    fn next(&mut self) -> Option<Self::Item> {
        let (start, end) = self.range;
        while let Some(idx) = self.stack.pop() {
            let node = &self.trie.nodes[idx as usize];
            // Push children right-then-left so the left (0) branch pops
            // first. A subtree spans exactly its root's own prefix — not
            // the one bit below the parent that the link stands for — so
            // that is what is tested against the range.
            for &child in node.children.iter().rev() {
                if child != NONE {
                    let span = self.trie.nodes[child as usize].prefix;
                    if span.first_addr() <= end && span.last_addr() >= start {
                        self.stack.push(child);
                    }
                }
            }
            if let Some(v) = &node.value {
                // Pushed only if its span overlapped (the root's always
                // does), and a prefix's span is its subtree's span.
                return Some((node.prefix, v));
            }
        }
        None
    }
}

impl<T: fmt::Debug> fmt::Debug for PrefixTrie<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<T> FromIterator<(Ipv4Prefix, T)> for PrefixTrie<T> {
    fn from_iter<I: IntoIterator<Item = (Ipv4Prefix, T)>>(iter: I) -> Self {
        let mut t = PrefixTrie::new();
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
        let mut t = PrefixTrie::new();
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
        let mut t = PrefixTrie::new();
        t.insert(Ipv4Prefix::DEFAULT, "default");
        assert_eq!(t.get(&Ipv4Prefix::DEFAULT), Some(&"default"));
        let (pre, v) = t.longest_match(0x01020304).unwrap();
        assert_eq!(pre, Ipv4Prefix::DEFAULT);
        assert_eq!(*v, "default");
    }

    #[test]
    fn longest_match_prefers_specific() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), 8);
        t.insert(p("10.1.0.0/16"), 16);
        t.insert(p("10.1.2.0/24"), 24);
        assert_eq!(t.longest_match(0x0A010203).map(|(_, v)| *v), Some(24));
        assert_eq!(t.longest_match(0x0A01FF00).map(|(_, v)| *v), Some(16));
        assert_eq!(t.longest_match(0x0AFF0000).map(|(_, v)| *v), Some(8));
        assert_eq!(t.longest_match(0x0B000000), None);
    }

    #[test]
    fn iteration_in_order() {
        let mut t = PrefixTrie::new();
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
        let mut t = PrefixTrie::new();
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
        // Pruned range iteration must agree exactly (contents and
        // order) with filtering the full iteration, including covering
        // prefixes that straddle the range boundary.
        let mut t = PrefixTrie::new();
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
            let pruned: Vec<_> = t.iter_overlapping(start, end).map(|(p, _)| p).collect();
            let filtered: Vec<_> = t
                .iter()
                .filter(|(p, _)| p.first_addr() <= end && p.last_addr() >= start)
                .map(|(p, _)| p)
                .collect();
            assert_eq!(pruned, filtered, "range {start:#x}..={end:#x}");
        }
    }

    #[test]
    fn get_or_insert_with() {
        let mut t: PrefixTrie<Vec<u32>> = PrefixTrie::new();
        t.get_or_insert_with(p("10.0.0.0/8"), Vec::new).push(1);
        t.get_or_insert_with(p("10.0.0.0/8"), Vec::new).push(2);
        assert_eq!(t.get(&p("10.0.0.0/8")), Some(&vec![1, 2]));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn remove_prunes_branches() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.1.2.0/24"), ());
        t.insert(p("10.0.0.0/8"), ());
        t.remove(&p("10.1.2.0/24"));
        assert_eq!(t.len(), 1);
        // The /8 node must survive pruning.
        assert!(t.get(&p("10.0.0.0/8")).is_some());
        // Root must not have dangling deep children: /24 unreachable now.
        assert!(t.get(&p("10.1.2.0/24")).is_none());
        // Only the root and the /8 are left; the /24's node is freed.
        assert_eq!(t.node_count(), 2);
        t.check_invariants();
    }

    #[test]
    fn covering_prefix_inserted_above_existing_node() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.1.2.0/24"), 24);
        t.insert(p("10.0.0.0/8"), 8); // spliced between the root and the /24
        t.check_invariants();
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.get(&p("10.0.0.0/8")), Some(&8));
        assert_eq!(t.get(&p("10.1.2.0/24")), Some(&24));
        assert_eq!(t.longest_match(0x0A010203).map(|(_, v)| *v), Some(24));
        assert_eq!(t.longest_match(0x0A020000).map(|(_, v)| *v), Some(8));
        let order: Vec<_> = t.iter().map(|(p, _)| p).collect();
        assert_eq!(order, vec![p("10.0.0.0/8"), p("10.1.2.0/24")]);
    }

    #[test]
    fn divergence_at_first_and_last_bit() {
        // Bit 0: the two leaves hang directly off the root.
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), 0);
        t.insert(p("192.0.0.0/8"), 1);
        t.check_invariants();
        assert_eq!(t.node_count(), 3);
        // Bit 31: a valueless /31 branch over two host routes.
        let mut t = PrefixTrie::new();
        t.insert(p("1.2.3.4/32"), 4);
        t.insert(p("1.2.3.5/32"), 5);
        t.check_invariants();
        assert_eq!(t.node_count(), 4);
        assert_eq!(t.get(&p("1.2.3.4/31")), None);
        assert_eq!(t.longest_match(0x01020305).map(|(_, v)| *v), Some(5));
        assert_eq!(t.longest_match(0x01020306), None);
        // A skipped bit must not match: 1.2.3.4/32 is reached from the
        // root in one link, and 9.2.3.4 differs from it only above.
        assert_eq!(t.longest_match(0x09020304), None);
    }

    #[test]
    fn shortest_and_longest_keys() {
        let mut t = PrefixTrie::new();
        t.insert(p("255.255.255.255/32"), 32);
        t.insert(Ipv4Prefix::DEFAULT, 0);
        t.insert(p("0.0.0.0/32"), 1);
        t.check_invariants();
        assert_eq!(t.node_count(), 3); // the root holds the /0 itself
        assert_eq!(t.longest_match(0).map(|(_, v)| *v), Some(1));
        assert_eq!(t.longest_match(u32::MAX).map(|(_, v)| *v), Some(32));
        assert_eq!(t.longest_match(7).map(|(_, v)| *v), Some(0));
        assert_eq!(t.remove(&Ipv4Prefix::DEFAULT), Some(0));
        t.check_invariants();
        assert_eq!(t.node_count(), 3); // the root is never freed
        assert_eq!(t.longest_match(7), None);
    }

    #[test]
    fn removal_merges_through_valueless_parent() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), 8);
        t.insert(p("10.1.2.0/24"), 2);
        t.insert(p("10.1.3.0/24"), 3); // valueless 10.1.2.0/23 branch
        assert_eq!(t.node_count(), 5);
        // The /23 is left with one child: it goes too, and the /8 links
        // straight to the surviving /24.
        assert_eq!(t.remove(&p("10.1.2.0/24")), Some(2));
        t.check_invariants();
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.get(&p("10.1.3.0/24")), Some(&3));
        assert_eq!(t.longest_match(0x0A010200).map(|(_, v)| *v), Some(8));
    }

    #[test]
    fn removed_value_with_two_children_stays_as_branch() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.1.2.0/23"), 23);
        t.insert(p("10.1.2.0/24"), 2);
        t.insert(p("10.1.3.0/24"), 3);
        assert_eq!(t.node_count(), 4);
        assert_eq!(t.remove(&p("10.1.2.0/23")), Some(23));
        t.check_invariants();
        assert_eq!(t.node_count(), 4);
        assert_eq!(t.get(&p("10.1.2.0/23")), None);
        assert_eq!(t.remove(&p("10.1.2.0/23")), None);
        assert_eq!(t.len(), 2);
        // Re-inserting finds the branch node instead of allocating.
        t.insert(p("10.1.2.0/23"), 9);
        assert_eq!(t.node_count(), 4);
    }

    #[test]
    fn churn_reuses_freed_indices() {
        let mut t = PrefixTrie::new();
        for i in 0..64u32 {
            t.insert(Ipv4Prefix::new(i.wrapping_mul(0x9E37_79B9), 24), i);
        }
        let nodes = t.node_count();
        let mut bytes = 0;
        for round in 0..50u32 {
            for i in 0..64u32 {
                let q = Ipv4Prefix::new(i.wrapping_mul(0x9E37_79B9), 24);
                assert_eq!(t.remove(&q), Some(i + round));
                t.check_invariants();
                assert_eq!(t.insert(q, i + round + 1), None);
            }
            if round == 0 {
                bytes = t.heap_bytes(); // the free list exists from here on
            }
        }
        t.check_invariants();
        assert_eq!(t.node_count(), nodes);
        assert_eq!(t.heap_bytes(), bytes, "the arena grew under churn");
    }

    #[test]
    fn scattered_table_stays_within_two_nodes_per_prefix() {
        // The shape of a generated Tier-1 table (`workload::tier1`):
        // /24s scattered over the whole address space. One node per
        // prefix bit took about 21 400 nodes for these 1 500 prefixes.
        let mut x = 20101220u64;
        let mut t = PrefixTrie::new();
        while t.len() < 1500 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            t.insert(Ipv4Prefix::new((x >> 32) as u32, 24), ());
        }
        t.check_invariants();
        assert!(t.node_count() <= 3001, "{} nodes", t.node_count());
    }

    #[test]
    fn freed_slots_are_recycled() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.1.2.0/24"), 1);
        let high_water = t.node_count();
        t.remove(&p("10.1.2.0/24"));
        t.insert(p("10.1.3.0/24"), 2); // same depth, shares /23 chain
        assert!(t.node_count() <= high_water);
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

    /// The trie owns real values (RIB-Out path sets, eBGP session maps),
    /// not handles: each one it is given is handed back or dropped,
    /// exactly once, whatever the op.
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
        let check = |t: &PrefixTrie<Tracked>, len| {
            t.check_invariants();
            assert_eq!(t.len(), len);
        };
        let mut t = PrefixTrie::new();
        // Two /24s under a valueless /23 branch, under a /8.
        for (i, x) in ["10.1.2.0/24", "10.1.3.0/24", "10.0.0.0/8"]
            .iter()
            .enumerate()
        {
            assert!(t.insert(p(x), make()).is_none());
            check(&t, i + 1);
        }
        // Insert over an existing value hands the old one back.
        let old = t.insert(p("10.1.2.0/24"), make()).expect("replaced");
        assert_eq!((old.id, dropped()), (1, vec![]));
        drop(old);
        assert_eq!(dropped(), [1]);
        check(&t, 3);
        // `get_or_insert_with` makes a value on a miss only.
        let hit = t.get_or_insert_with(p("10.1.3.0/24"), || unreachable!("a hit"));
        assert_eq!(hit.id, 2);
        assert_eq!(t.get_or_insert_with(p("192.168.0.0/16"), &mut make).id, 5);
        check(&t, 4);
        // Removing a /24 splices it and the /23 above it out; the
        // value comes back, undropped.
        let nodes = t.node_count();
        let gone = t.remove(&p("10.1.3.0/24")).expect("stored");
        assert_eq!((gone.id, t.node_count()), (2, nodes - 2));
        assert_eq!(dropped(), [1]);
        drop(gone);
        check(&t, 3);
        // A new leaf and its branch take the two freed nodes.
        let arena = t.heap_bytes();
        assert!(t.insert(p("10.1.4.0/24"), make()).is_none());
        assert_eq!((t.heap_bytes(), t.node_count()), (arena, nodes));
        check(&t, 4);
        // `clear` drops all that is left, and dropping the trie nothing.
        t.clear();
        check(&t, 0);
        drop(t);
        let mut all = dropped();
        all.sort_unstable();
        assert_eq!(all, (1..=made).collect::<Vec<_>>(), "each once");
    }

    #[test]
    fn host_routes() {
        let mut t = PrefixTrie::new();
        t.insert(p("1.2.3.4/32"), 42);
        assert_eq!(t.longest_match(0x01020304).map(|(_, v)| *v), Some(42));
        assert_eq!(t.longest_match(0x01020305), None);
    }
}
