//! Storage-equivalence sweep: the trie/slab-backed RIBs must be
//! observably identical to the plain map layout they replaced.
//!
//! Each reference model here *is* the old layout — per-peer `BTreeMap`
//! tables for Adj-RIB-In, one `BTreeMap` per group for Adj-RIB-Out, a
//! `BTreeMap` for Loc-RIB — driven through the same randomized op
//! sequences as the real structures. Equivalence covers return values
//! (change detection) and every order-observable API, because iteration
//! order reaches the decision process and the golden fingerprints.

use bgp_rib::{AdjRibIn, AdjRibOut, LocRib, PathSet};
use bgp_types::{intern, Ipv4Prefix, NextHop, PathAttributes, PathId, RouterId};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A distinct attribute object per (path id, version): same-id sets
/// with different versions must register as changes.
fn attrs(id: u8, version: u8) -> Arc<PathAttributes> {
    intern(PathAttributes::local(NextHop(
        1_000 * version as u32 + id as u32,
    )))
}

fn path_set(ids: &[(u8, u8)]) -> PathSet {
    ids.iter()
        .map(|&(id, v)| (PathId(id as u32), attrs(id, v)))
        .collect()
}

/// The old `AdjRibIn`: per-peer prefix tables, peer-major iteration.
#[derive(Default)]
struct RefRibIn {
    tables: BTreeMap<RouterId, BTreeMap<Ipv4Prefix, PathSet>>,
}

impl RefRibIn {
    fn normalize(mut set: PathSet) -> PathSet {
        set.sort_by_key(|(id, _)| *id);
        set.dedup_by(|a, b| a.0 == b.0);
        set
    }

    fn set_paths(&mut self, peer: RouterId, prefix: Ipv4Prefix, paths: PathSet) -> bool {
        let paths = Self::normalize(paths);
        let table = self.tables.entry(peer).or_default();
        if paths.is_empty() {
            table.remove(&prefix).is_some()
        } else if table.get(&prefix) == Some(&paths) {
            false
        } else {
            table.insert(prefix, paths);
            true
        }
    }

    fn drop_peer(&mut self, peer: RouterId) -> Vec<Ipv4Prefix> {
        self.tables
            .remove(&peer)
            .map(|t| t.into_keys().collect())
            .unwrap_or_default()
    }

    fn known_prefixes(&self) -> Vec<Ipv4Prefix> {
        let mut v: Vec<Ipv4Prefix> = self
            .tables
            .values()
            .flat_map(|t| t.keys().copied())
            .collect();
        v.sort();
        v.dedup();
        v
    }

    fn all_paths(&self, prefix: &Ipv4Prefix) -> Vec<(RouterId, PathId, u32)> {
        let mut out = Vec::new();
        for (peer, table) in &self.tables {
            if let Some(set) = table.get(prefix) {
                for (id, a) in set {
                    out.push((*peer, *id, a.next_hop.0));
                }
            }
        }
        out
    }

    fn paths(&self, peer: RouterId, prefix: &Ipv4Prefix) -> Vec<(PathId, u32)> {
        self.tables
            .get(&peer)
            .and_then(|t| t.get(prefix))
            .map(|s| s.iter().map(|(id, a)| (*id, a.next_hop.0)).collect())
            .unwrap_or_default()
    }

    fn num_entries(&self) -> usize {
        self.tables
            .values()
            .flat_map(|t| t.values())
            .map(|s| s.len())
            .sum()
    }

    fn peers(&self) -> Vec<RouterId> {
        self.tables.keys().copied().collect()
    }
}

#[derive(Clone, Debug)]
enum RibOp {
    Set {
        peer: u8,
        addr: u32,
        len: u8,
        /// `(path id, attribute version)`, as drawn: unsorted, with
        /// duplicate ids, and of any length up to 6 — so one sequence
        /// mixes same-length, growing and shrinking replaces.
        ids: Vec<(u8, u8)>,
        /// Hand the set over as a borrowed slice, not an owned `Vec`.
        borrowed: bool,
    },
    Withdraw {
        peer: u8,
        addr: u32,
        len: u8,
    },
    DropPeer {
        peer: u8,
    },
}

fn rib_op() -> impl Strategy<Value = RibOp> {
    // A small pool of addresses/lengths so ops collide, nest, and
    // revisit prefixes; masking in `Ipv4Prefix::new` adds aliasing.
    (
        0u8..7,
        0u8..5,
        0u32..48,
        prop::sample::select(vec![8u8, 12, 16, 24, 32]),
        prop::collection::vec((0u8..6, 0u8..3), 0..7),
        any::<bool>(),
    )
        .prop_map(|(kind, peer, x, len, ids, borrowed)| {
            let addr = x << 26;
            match kind {
                0..=3 => RibOp::Set {
                    peer,
                    addr,
                    len,
                    ids,
                    borrowed,
                },
                4 | 5 => RibOp::Withdraw { peer, addr, len },
                _ => RibOp::DropPeer { peer },
            }
        })
}

/// The Adj-RIB-In's unit of storage: a route costs this, no container.
#[test]
fn adj_rib_in_entry_is_16_bytes() {
    assert_eq!(
        std::mem::size_of::<(RouterId, PathId, Arc<PathAttributes>)>(),
        16
    );
}

proptest! {
    #[test]
    fn adj_rib_in_equivalent_to_per_peer_btreemaps(ops in prop::collection::vec(rib_op(), 1..80)) {
        let mut real = AdjRibIn::new();
        let mut reference = RefRibIn::default();
        for op in &ops {
            match op {
                RibOp::Set { peer, addr, len, ids, borrowed } => {
                    let peer = RouterId(10 + *peer as u32);
                    let p = Ipv4Prefix::new(*addr, *len);
                    let set = path_set(ids);
                    let a = if *borrowed {
                        real.set_paths(peer, p, &set[..])
                    } else {
                        real.set_paths(peer, p, set)
                    };
                    let b = reference.set_paths(peer, p, path_set(ids));
                    prop_assert_eq!(a, b, "set_paths change bit diverged");
                }
                RibOp::Withdraw { peer, addr, len } => {
                    let peer = RouterId(10 + *peer as u32);
                    let p = Ipv4Prefix::new(*addr, *len);
                    let a = real.withdraw(peer, p);
                    let b = reference.set_paths(peer, p, Vec::new());
                    prop_assert_eq!(a, b, "withdraw change bit diverged");
                }
                RibOp::DropPeer { peer } => {
                    let peer = RouterId(10 + *peer as u32);
                    let a = real.drop_peer(peer);
                    let b = reference.drop_peer(peer);
                    prop_assert_eq!(a, b, "drop_peer affected-set diverged");
                }
            }
            // Full observable-state comparison after every op.
            prop_assert_eq!(real.known_prefixes(), reference.known_prefixes());
            prop_assert_eq!(real.num_entries(), reference.num_entries());
            for p in real.known_prefixes() {
                let got: Vec<(RouterId, PathId, u32)> = real
                    .all_paths(&p)
                    .map(|(r, id, a)| (r, id, a.next_hop.0))
                    .collect();
                // The slot is one run, strictly sorted by (peer, path id).
                prop_assert!(
                    got.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)),
                    "slot order for {}: {:?}", p, got
                );
                prop_assert_eq!(got, reference.all_paths(&p), "all_paths order for {}", p);
                for peer in reference.peers() {
                    let run = real.paths(peer, &p);
                    prop_assert!(run.iter().all(|(r, _, _)| *r == peer));
                    let got: Vec<(PathId, u32)> =
                        run.iter().map(|(_, id, a)| (*id, a.next_hop.0)).collect();
                    prop_assert_eq!(got, reference.paths(peer, &p));
                }
            }
            // Range queries must agree with the brute-force overlap
            // filter (what the AP-reassignment paths rely on).
            for (start, end) in [(0u32, u32::MAX), (0, 1 << 28), (3 << 28, 9 << 28), (1 << 31, u32::MAX)] {
                let brute: Vec<Ipv4Prefix> = reference
                    .known_prefixes()
                    .into_iter()
                    .filter(|p| p.first_addr() <= end && p.last_addr() >= start)
                    .collect();
                prop_assert_eq!(real.known_prefixes_in(start, end), brute);
            }
        }
        // The peer registry only diverges from the reference in one
        // documented way: no-op withdrawals register the session (the
        // old `entry(peer).or_default()`), so real peers ⊇ reference.
        let real_peers: BTreeSet<RouterId> = real.peers().collect();
        for p in reference.peers() {
            prop_assert!(real_peers.contains(&p));
        }
    }

    #[test]
    fn loc_rib_equivalent_to_btreemap(ops in prop::collection::vec(
        ((0u32..48, prop::sample::select(vec![8u8, 12, 16, 24])), prop::option::of(0u32..6)),
        1..60,
    )) {
        let mut real: LocRib<u32> = LocRib::new();
        let mut reference: BTreeMap<Ipv4Prefix, u32> = BTreeMap::new();
        // What `Chassis::selection_changes` used to be: a count per
        // prefix, bumped on every change, withdrawals included.
        let mut changes: BTreeMap<Ipv4Prefix, u32> = BTreeMap::new();
        for ((x, len), val) in &ops {
            let p = Ipv4Prefix::new(*x << 26, *len);
            let a = real.set(p, *val);
            let b = match val {
                Some(v) => reference.insert(p, *v) != Some(*v),
                None => reference.remove(&p).is_some(),
            };
            prop_assert_eq!(a, b, "set change bit diverged at {}", p);
            if b {
                *changes.entry(p).or_default() += 1;
            }
            prop_assert_eq!(real.len(), reference.len());
            let counted: Vec<(Ipv4Prefix, u32)> = real.iter_changes().map(|(p, c)| (*p, c)).collect();
            let want: Vec<(Ipv4Prefix, u32)> = changes.iter().map(|(p, c)| (*p, *c)).collect();
            prop_assert_eq!(counted, want, "change counts diverged");
            let got: Vec<(Ipv4Prefix, u32)> = real.iter().map(|(p, v)| (*p, *v)).collect();
            let want: Vec<(Ipv4Prefix, u32)> = reference.iter().map(|(p, v)| (*p, *v)).collect();
            prop_assert_eq!(got, want, "iteration order diverged");
            // Longest-prefix match against the brute-force scan.
            for probe in [0u32, 7 << 26, 13 << 26, 40 << 26, u32::MAX] {
                let want = reference
                    .iter()
                    .filter(|(p, _)| p.first_addr() <= probe && probe <= p.last_addr())
                    .max_by_key(|(p, _)| p.len())
                    .map(|(p, v)| (*p, *v));
                prop_assert_eq!(real.lookup(probe).map(|(p, v)| (p, *v)), want);
            }
        }
    }

    #[test]
    fn adj_rib_out_export_walk_equivalent_to_per_group_maps(ops in prop::collection::vec(
        (0u8..3, (0u32..32, prop::sample::select(vec![12u8, 16, 24])), prop::collection::vec((0u8..3, 0u8..2), 0..3)),
        1..60,
    )) {
        // Three groups with overlapping memberships; RouterId(7) is in
        // groups 0 and 2, RouterId(8) in 1 and 2.
        let members = [vec![RouterId(7)], vec![RouterId(8)], vec![RouterId(7), RouterId(8)]];
        let mut real = AdjRibOut::new();
        let mut reference: BTreeMap<u32, BTreeMap<Ipv4Prefix, PathSet>> = BTreeMap::new();
        for (g, m) in members.iter().enumerate() {
            real.define_group(g as u32, m.clone());
            reference.insert(g as u32, BTreeMap::new());
        }
        for (g, (x, len), ids) in &ops {
            let g = *g as u32;
            let p = Ipv4Prefix::new(*x << 26, *len);
            let set = RefRibIn::normalize(path_set(ids));
            let a = real.set_paths(g, p, path_set(ids));
            let table = reference.get_mut(&g).unwrap();
            let b = if set.is_empty() {
                table.remove(&p).is_some()
            } else if table.get(&p) == Some(&set) {
                false
            } else {
                table.insert(p, set);
                true
            };
            prop_assert_eq!(a, b, "group set_paths change bit diverged");
        }
        // Per-group iteration order.
        for g in 0..3u32 {
            let got: Vec<Ipv4Prefix> = real.iter_group(g).map(|(p, _)| *p).collect();
            let want: Vec<Ipv4Prefix> = reference[&g].keys().copied().collect();
            prop_assert_eq!(got, want, "iter_group order for group {}", g);
        }
        prop_assert_eq!(
            real.num_entries(),
            reference.values().flat_map(|t| t.values()).map(|s| s.len()).sum::<usize>()
        );
        // Export walks: (group, prefix) ascending over the peer's groups
        // — the resync order every session cursor replays.
        for peer in [RouterId(7), RouterId(8), RouterId(9)] {
            let got: Vec<(u32, Ipv4Prefix, usize)> = real
                .export_walk(peer)
                .map(|(g, p, set)| (g, *p, set.len()))
                .collect();
            let mut want = Vec::new();
            for (g, table) in &reference {
                if !members[*g as usize].contains(&peer) {
                    continue;
                }
                for (p, set) in table {
                    want.push((*g, *p, set.len()));
                }
            }
            prop_assert_eq!(got, want, "export_walk diverged for {:?}", peer);
        }
    }
}
