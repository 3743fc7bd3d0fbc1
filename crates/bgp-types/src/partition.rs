//! Address Partitions (APs): the ABRR work division (paper §2.1).
//!
//! An AP is a set of address ranges. Each AP is served by one or more
//! ARRs. A prefix belongs to every AP whose ranges it overlaps ("If a
//! prefix spans multiple APs, then the associated route is advertised to
//! the ARRs for all such APs"). Different APs may overlap.

use crate::prefix::{AddressRange, Ipv4Prefix};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of an Address Partition.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ApId(pub u16);

impl fmt::Debug for ApId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AP{}", self.0)
    }
}

impl fmt::Display for ApId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// One Address Partition: an id plus the address ranges it covers.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partition {
    /// The partition's identifier.
    pub id: ApId,
    /// The covered ranges (usually one; may be several for balanced APs).
    pub ranges: Vec<AddressRange>,
}

impl Partition {
    /// Whether the prefix overlaps any of this partition's ranges.
    pub fn covers(&self, prefix: &Ipv4Prefix) -> bool {
        self.ranges.iter().any(|r| r.overlaps_prefix(prefix))
    }

    /// Total number of addresses covered (ranges assumed disjoint).
    pub fn num_addrs(&self) -> u64 {
        self.ranges.iter().map(|r| r.num_addrs()).sum()
    }
}

/// The full AP configuration of an AS: every partition, in id order.
///
/// ```
/// use bgp_types::{ApMap, Ipv4Prefix};
/// let m = ApMap::uniform(4);
/// let p: Ipv4Prefix = "10.0.0.0/8".parse().unwrap();   // first quarter
/// assert_eq!(m.aps_for_prefix(&p), vec![m.partitions()[0].id]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ApMap {
    partitions: Vec<Partition>,
}

impl ApMap {
    /// Builds an AP map from explicit partitions.
    ///
    /// # Panics
    /// Panics if `partitions` is empty or ids are not unique.
    pub fn new(partitions: Vec<Partition>) -> Self {
        assert!(!partitions.is_empty(), "ApMap needs at least one partition");
        let mut ids: Vec<u16> = partitions.iter().map(|p| p.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), partitions.len(), "duplicate ApId");
        ApMap { partitions }
    }

    /// Splits the full address space into `n` equal ranges — the
    /// "uniform address ranges" configuration used in the paper's
    /// experiments (§4).
    pub fn uniform(n: usize) -> Self {
        let partitions = AddressRange::split_uniform(n)
            .into_iter()
            .enumerate()
            .map(|(i, r)| Partition {
                id: ApId(i as u16),
                ranges: vec![r],
            })
            .collect();
        ApMap { partitions }
    }

    /// Builds `n` partitions holding a roughly equal number of the given
    /// prefixes — the paper's remedy for the min/max RIB-size variance of
    /// uniform ranges (§4.1: "ISPs ... can easily control this variance
    /// by selecting address ranges that have the appropriate percentage
    /// of prefixes").
    ///
    /// The prefixes are sorted by first address; split points fall on
    /// count boundaries and each partition's single range spans from its
    /// first prefix's first address through the address just before the
    /// next partition's range (so every address maps somewhere).
    pub fn balanced(prefixes: &[Ipv4Prefix], n: usize) -> Self {
        assert!(n > 0);
        if prefixes.is_empty() {
            return Self::uniform(n);
        }
        let mut sorted: Vec<u32> = prefixes.iter().map(|p| p.first_addr()).collect();
        sorted.sort_unstable();
        sorted.dedup();
        let n = n.min(sorted.len());
        let per = sorted.len().div_ceil(n);
        let mut partitions = Vec::with_capacity(n);
        let mut start_addr = 0u32;
        let mut i = 0usize;
        loop {
            let next_split = (i + 1) * per;
            // Last partition: everything after `start_addr`. Also guard
            // against a split point whose boundary address would not
            // advance (duplicate-adjacent first addresses).
            let is_last = next_split >= sorted.len();
            let end_addr = if is_last {
                u32::MAX
            } else {
                sorted[next_split].saturating_sub(1).max(start_addr)
            };
            partitions.push(Partition {
                id: ApId(i as u16),
                ranges: vec![AddressRange::new(start_addr, end_addr)],
            });
            if is_last {
                break;
            }
            start_addr = end_addr.wrapping_add(1);
            i += 1;
        }
        ApMap { partitions }
    }

    /// The partitions, in id order.
    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    /// Number of partitions.
    pub fn len(&self) -> usize {
        self.partitions.len()
    }

    /// Whether the map is empty (never true for a constructed map).
    pub fn is_empty(&self) -> bool {
        self.partitions.is_empty()
    }

    /// All APs responsible for `prefix` — every AP whose ranges the
    /// prefix overlaps, in id order. A spanning prefix maps to several
    /// APs. Walks the partitions; allocates nothing.
    pub fn aps_covering(&self, prefix: &Ipv4Prefix) -> impl Iterator<Item = ApId> + '_ {
        let prefix = *prefix;
        self.partitions
            .iter()
            .filter(move |p| p.covers(&prefix))
            .map(|p| p.id)
    }

    /// [`ApMap::aps_covering`], collected.
    pub fn aps_for_prefix(&self, prefix: &Ipv4Prefix) -> Vec<ApId> {
        self.aps_covering(prefix).collect()
    }

    /// Looks up a partition by id.
    pub fn partition(&self, id: ApId) -> Option<&Partition> {
        self.partitions.iter().find(|p| p.id == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pfx(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn uniform_assigns_each_prefix_somewhere() {
        let m = ApMap::uniform(8);
        for s in ["0.0.0.0/8", "32.0.0.0/8", "255.0.0.0/8", "10.1.2.0/24"] {
            let aps = m.aps_for_prefix(&pfx(s));
            assert_eq!(aps.len(), 1, "{s} should land in exactly one /8-aligned AP");
        }
    }

    #[test]
    fn spanning_prefix_maps_to_multiple_aps() {
        let m = ApMap::uniform(4); // boundaries at 64.0.0.0, 128.0.0.0, 192.0.0.0
        let wide = pfx("0.0.0.0/1"); // covers 0..128 => APs 0 and 1
        assert_eq!(m.aps_for_prefix(&wide).len(), 2);
        let all = Ipv4Prefix::DEFAULT;
        assert_eq!(m.aps_for_prefix(&all).len(), 4);
    }

    #[test]
    fn single_partition_covers_everything() {
        let m = ApMap::uniform(1);
        assert_eq!(m.aps_for_prefix(&pfx("1.2.3.0/24")), vec![ApId(0)]);
        assert_eq!(m.aps_for_prefix(&Ipv4Prefix::DEFAULT), vec![ApId(0)]);
    }

    #[test]
    #[should_panic(expected = "duplicate ApId")]
    fn rejects_duplicate_ids() {
        let r = AddressRange::FULL;
        ApMap::new(vec![
            Partition {
                id: ApId(0),
                ranges: vec![r],
            },
            Partition {
                id: ApId(0),
                ranges: vec![r],
            },
        ]);
    }

    #[test]
    fn balanced_splits_equalize_prefix_counts() {
        // 100 prefixes crammed into 10/8, plus 2 prefixes elsewhere:
        // uniform(4) would put ~all in one AP; balanced(4) spreads them.
        let mut prefixes = Vec::new();
        for i in 0..100u32 {
            prefixes.push(Ipv4Prefix::new(0x0A000000 | (i << 8), 24));
        }
        prefixes.push(pfx("200.0.0.0/8"));
        prefixes.push(pfx("220.0.0.0/8"));
        let m = ApMap::balanced(&prefixes, 4);
        assert_eq!(m.len(), 4);
        let mut counts = vec![0usize; 4];
        for p in &prefixes {
            for ap in m.aps_for_prefix(p) {
                counts[ap.0 as usize] += 1;
            }
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(
            max - min <= 2,
            "balanced partition counts should be near-equal, got {counts:?}"
        );
        // Every address must still map to some AP.
        assert!(!m.aps_for_prefix(&pfx("5.5.5.0/24")).is_empty());
        assert!(!m.aps_for_prefix(&pfx("250.0.0.0/8")).is_empty());
    }

    #[test]
    fn balanced_with_fewer_prefixes_than_partitions() {
        let prefixes = vec![pfx("10.0.0.0/8"), pfx("20.0.0.0/8")];
        let m = ApMap::balanced(&prefixes, 10);
        assert!(m.len() <= 2);
        assert!(!m.aps_for_prefix(&pfx("10.0.0.0/8")).is_empty());
    }
}
