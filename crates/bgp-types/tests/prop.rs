//! Property-based tests for the core data structures.

use bgp_types::{AddressRange, ApMap, AsPath, Asn, Ipv4Prefix, PrefixTable};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn arb_prefix() -> impl Strategy<Value = Ipv4Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(addr, len)| Ipv4Prefix::new(addr, len))
}

/// Table keys: half uniformly random, half from a 64-address by
/// 9-length family, so that operations also hit stored keys, their
/// covers and their siblings, at both ends of the length range.
fn arb_table_key() -> impl Strategy<Value = Ipv4Prefix> {
    (any::<u32>(), 0u8..=32, any::<bool>()).prop_map(|(addr, len, dense)| {
        if !dense {
            return Ipv4Prefix::new(addr, len);
        }
        let lens = [0, 1, 2, 8, 23, 24, 30, 31, 32];
        Ipv4Prefix::new(addr & 0xC100_0103, lens[len as usize % lens.len()])
    })
}

proptest! {
    /// Construction always canonicalizes: no host bits below the mask.
    #[test]
    fn prefix_is_canonical(addr in any::<u32>(), len in 0u8..=32) {
        let p = Ipv4Prefix::new(addr, len);
        prop_assert_eq!(p.addr() & !Ipv4Prefix::mask(len), 0);
        prop_assert!(p.contains_addr(addr));
    }

    /// Display/parse round-trips.
    #[test]
    fn prefix_parse_roundtrip(p in arb_prefix()) {
        let s = p.to_string();
        let q: Ipv4Prefix = s.parse().unwrap();
        prop_assert_eq!(p, q);
    }

    /// first_addr/last_addr bound exactly the covered addresses.
    #[test]
    fn prefix_range_bounds(p in arb_prefix(), probe in any::<u32>()) {
        let inside = p.first_addr() <= probe && probe <= p.last_addr();
        prop_assert_eq!(p.contains_addr(probe), inside);
    }

    /// Containment is consistent with range inclusion.
    #[test]
    fn containment_matches_ranges(a in arb_prefix(), b in arb_prefix()) {
        let by_range = a.first_addr() <= b.first_addr() && b.last_addr() <= a.last_addr();
        prop_assert_eq!(a.contains(&b), by_range && a.len() <= b.len());
        // For prefixes, range inclusion implies the length condition too.
        prop_assert_eq!(a.contains(&b), by_range);
    }

    /// The prefix table behaves exactly like a BTreeMap under a random
    /// workload of every mutating operation, and longest_match (plain
    /// and filtered) and range iteration agree with a linear scan.
    /// Removals leave their lengths in the table's mask, so the
    /// matches also cover probes of lengths nothing is stored at.
    #[test]
    fn trie_models_map(
        ops in prop::collection::vec((arb_table_key(), 0u8..5, any::<u16>()), 1..200),
        probes in prop::collection::vec(any::<u32>(), 10),
        ranges in prop::collection::vec((any::<u32>(), any::<u32>()), 6)
    ) {
        let mut table = PrefixTable::new();
        let mut model: BTreeMap<Ipv4Prefix, u16> = BTreeMap::new();
        for (p, op, v) in ops {
            match op {
                0 | 1 => prop_assert_eq!(table.insert(p, v), model.insert(p, v)),
                2 => prop_assert_eq!(table.remove(&p), model.remove(&p)),
                3 => {
                    let slot = table.get_or_insert_with(p, || v);
                    prop_assert_eq!(*slot, *model.entry(p).or_insert(v));
                }
                _ => {
                    let slot = table.get_mut(&p);
                    prop_assert_eq!(slot.as_deref(), model.get(&p));
                    if let Some(slot) = slot {
                        *slot = v;
                        model.insert(p, v);
                    }
                }
            }
            prop_assert_eq!(table.len(), model.len());
        }
        for (p, v) in &model {
            prop_assert_eq!(table.get(p), Some(v));
        }
        // Iteration yields exactly the model's contents, in order.
        let from_table: Vec<(Ipv4Prefix, u16)> = table.iter().map(|(p, v)| (p, *v)).collect();
        let from_model: Vec<(Ipv4Prefix, u16)> = model.iter().map(|(p, v)| (*p, *v)).collect();
        prop_assert_eq!(from_table, from_model);
        // Longest-match agrees with brute force. The stored keys' own
        // addresses are probed too: a random address matches little.
        for probe in probes.into_iter().chain(model.keys().map(|p| p.last_addr())) {
            let brute = model
                .iter()
                .filter(|(p, _)| p.contains_addr(probe))
                .max_by_key(|(p, _)| p.len())
                .map(|(p, v)| (*p, *v));
            let got = table.longest_match(probe).map(|(p, v)| (p, *v));
            prop_assert_eq!(got, brute);
            // With a predicate, a rejected prefix is as good as absent
            // (odd values stand for the Loc-RIB's withdrawn slots).
            let live = |v: &u16| v & 1 == 0;
            let brute = model
                .iter()
                .filter(|(p, v)| p.contains_addr(probe) && live(v))
                .max_by_key(|(p, _)| p.len())
                .map(|(p, v)| (*p, *v));
            let got = table.longest_match_where(probe, live).map(|(p, v)| (p, *v));
            prop_assert_eq!(got, brute);
        }
        // Range iteration agrees with filtering the model, for
        // random ranges and for each stored key's own first address.
        let points = model.keys().map(|p| (p.first_addr(), p.first_addr()));
        for (a, b) in ranges.into_iter().chain(points.collect::<Vec<_>>()) {
            let (s, e) = (a.min(b), a.max(b));
            let ranged: Vec<Ipv4Prefix> = table.iter_overlapping(s, e).map(|(p, _)| p).collect();
            let filtered: Vec<Ipv4Prefix> = model
                .keys()
                .filter(|p| p.first_addr() <= e && p.last_addr() >= s)
                .copied()
                .collect();
            prop_assert_eq!(ranged, filtered, "range {:#x}..={:#x}", s, e);
        }
    }

    /// Uniform AP maps assign every prefix to at least one AP, and a
    /// prefix is assigned to an AP iff it overlaps the AP's range.
    #[test]
    fn ap_assignment_is_overlap(p in arb_prefix(), n in 1usize..64) {
        let m = ApMap::uniform(n);
        let aps = m.aps_for_prefix(&p);
        prop_assert!(!aps.is_empty());
        for part in m.partitions() {
            let covered = part.ranges.iter().any(|r| r.overlaps_prefix(&p));
            prop_assert_eq!(covered, aps.contains(&part.id));
        }
    }

    /// Balanced AP maps cover the whole address space (every address has
    /// an AP) and never assign a covered prefix zero APs.
    #[test]
    fn balanced_covers_space(
        firsts in prop::collection::vec(any::<u32>(), 1..100),
        n in 1usize..16,
        probe in any::<u32>()
    ) {
        let prefixes: Vec<Ipv4Prefix> =
            firsts.iter().map(|a| Ipv4Prefix::new(*a, 24)).collect();
        let m = ApMap::balanced(&prefixes, n);
        let probe_pfx = Ipv4Prefix::new(probe, 32);
        prop_assert!(!m.aps_for_prefix(&probe_pfx).is_empty());
    }

    /// AS-path prepend increases path length by one, sets first_as and
    /// keeps every AS behind it.
    #[test]
    fn prepend_properties(asns in prop::collection::vec(1u32..65536, 0..6), new_as in 1u32..65536) {
        let base = if asns.is_empty() {
            AsPath::empty()
        } else {
            AsPath::sequence(asns.iter().map(|a| Asn(*a)))
        };
        let p = base.borrowed().prepend(Asn(new_as));
        let p = p.borrowed();
        prop_assert_eq!(p.path_len(), base.borrowed().path_len() + 1);
        prop_assert_eq!(p.first_as(), Some(Asn(new_as)));
        let all: Vec<u32> = p.segments().flat_map(|s| s.asns()).map(|a| a.0).collect();
        prop_assert_eq!(all, [&[new_as][..], &asns].concat());
    }

    /// Uniform range splitting is a partition of the address space.
    #[test]
    fn split_uniform_partitions(n in 1usize..128) {
        let ranges = AddressRange::split_uniform(n);
        let mut covered: u64 = 0;
        for r in &ranges {
            covered += r.num_addrs();
        }
        prop_assert_eq!(covered, 1u64 << 32);
        for w in ranges.windows(2) {
            prop_assert!(w[0].end() < w[1].start());
            prop_assert_eq!(w[0].end() + 1, w[1].start());
        }
    }
}
