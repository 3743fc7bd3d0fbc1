//! Storage-equivalence sweep: the hash-indexed RIBs must be observably
//! identical to the plain map layout they replaced.
//!
//! Each reference model here *is* the old layout — per-peer `BTreeMap`
//! tables for Adj-RIB-In, one `BTreeMap` per group for Adj-RIB-Out, a
//! `BTreeMap` for Loc-RIB — driven through the same randomized op
//! sequences as the real structures. Equivalence covers return values
//! (change detection) and every order-observable API, because iteration
//! order reaches the decision process and the golden fingerprints.
//!
//! The Adj-RIB-In and the Loc-RIB are checked as columns: one column
//! over an index of its own, and, as a router holds them, two
//! Adj-RIB-In columns and a Loc-RIB column over *one* [`PrefixIndex`].
//! One test feeds one history to two such routers in two arrival
//! orders: the prefix ids differ, nothing observable may. The index
//! and the RIB-Out are hashed maps whose every ordered answer is a
//! sort: two more tests build each in two arrival orders over prefixes
//! of every length, /0 to /32. The last holds the benchmark's prefix-keyed adapters ([`AdjRibIn`],
//! [`LocRib`], [`CandidateBatch`]) to the index + column path they
//! wrap.

use bgp_rib::{
    best_as_level_of, AdjRibIn, AdjRibOut, Candidate, CandidateBatch, DecisionConfig, LocColumn,
    LocRib, PathSet, PrefixId, PrefixIndex, RibInColumn,
};
use bgp_types::{intern, Ipv4Prefix, NextHop, PathAttributes, PathId, RouteSource, RouterId};
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

/// A route as the comparisons see it: the next hop stands for the
/// attribute object.
type Route = (RouterId, PathId, u32);

fn routes<'a>(it: impl Iterator<Item = (RouterId, PathId, &'a Arc<PathAttributes>)>) -> Vec<Route> {
    it.map(|(r, id, a)| (r, id, a.next_hop.0)).collect()
}

/// An Adj-RIB-In under test, answering by prefix: one column with the
/// index it is over.
trait RibIn {
    fn set(&mut self, peer: RouterId, p: Ipv4Prefix, set: PathSet, borrowed: bool) -> bool;
    fn drop_peer(&mut self, peer: RouterId) -> Vec<Ipv4Prefix>;
    fn known_in(&self, start: u32, end: u32) -> Vec<Ipv4Prefix>;
    fn entries(&self) -> usize;
    fn all(&self, p: &Ipv4Prefix) -> Vec<Route>;
    fn from(&self, peer: RouterId, p: &Ipv4Prefix) -> Vec<Route>;
    fn peers(&self) -> BTreeSet<RouterId>;
}

impl RibIn for (&mut PrefixIndex, &mut RibInColumn) {
    fn set(&mut self, peer: RouterId, p: Ipv4Prefix, set: PathSet, borrowed: bool) -> bool {
        // As `BgpNode::process_batch` does: an id on first sight, even
        // for a withdrawal of something never announced.
        let id = self.0.resolve(p);
        if borrowed {
            self.1.set_paths(peer, id, &set[..])
        } else {
            self.1.set_paths(peer, id, set)
        }
    }
    fn drop_peer(&mut self, peer: RouterId) -> Vec<Ipv4Prefix> {
        let dropped = self.1.drop_peer(self.0, peer);
        for (p, id) in &dropped {
            assert_eq!(
                self.0.id(p),
                Some(*id),
                "drop_peer paired {p} with another's id"
            );
        }
        dropped.into_iter().map(|(p, _)| p).collect()
    }
    fn known_in(&self, start: u32, end: u32) -> Vec<Ipv4Prefix> {
        let known = self.1.known_prefixes_in(self.0, start, end);
        known.into_iter().map(|(p, _)| p).collect()
    }
    fn entries(&self) -> usize {
        self.1.num_entries()
    }
    fn all(&self, p: &Ipv4Prefix) -> Vec<Route> {
        self.0
            .id(p)
            .map_or(Vec::new(), |id| routes(self.1.all_paths(id)))
    }
    fn from(&self, peer: RouterId, p: &Ipv4Prefix) -> Vec<Route> {
        let run = self.0.id(p).map_or(&[][..], |id| self.1.paths(peer, id));
        routes(run.iter().map(|(r, id, a)| (*r, *id, a)))
    }
    fn peers(&self) -> BTreeSet<RouterId> {
        self.1.peers().collect()
    }
}

/// Applies `op` to the table and to its model; the change bits (or the
/// dropped lists) must agree. Returns what a peer drop dropped.
fn apply_rib_op(real: &mut impl RibIn, reference: &mut RefRibIn, op: &RibOp) -> Vec<Ipv4Prefix> {
    match op {
        RibOp::Set {
            peer,
            addr,
            len,
            ids,
            borrowed,
        } => {
            let peer = RouterId(10 + *peer as u32);
            let p = Ipv4Prefix::new(*addr, *len);
            let a = real.set(peer, p, path_set(ids), *borrowed);
            let b = reference.set_paths(peer, p, path_set(ids));
            assert_eq!(a, b, "set_paths change bit diverged");
        }
        RibOp::Withdraw { peer, addr, len } => {
            let peer = RouterId(10 + *peer as u32);
            let p = Ipv4Prefix::new(*addr, *len);
            let a = real.set(peer, p, Vec::new(), true);
            let b = reference.set_paths(peer, p, Vec::new());
            assert_eq!(a, b, "withdraw change bit diverged");
        }
        RibOp::DropPeer { peer } => {
            let peer = RouterId(10 + *peer as u32);
            let dropped = real.drop_peer(peer);
            assert_eq!(
                dropped,
                reference.drop_peer(peer),
                "drop_peer affected-set diverged"
            );
            return dropped;
        }
    }
    Vec::new()
}

const RANGES: [(u32, u32); 4] = [
    (0, u32::MAX),
    (0, 1 << 28),
    (3 << 28, 9 << 28),
    (1 << 31, u32::MAX),
];

/// Full observable-state comparison of a table against its model.
fn assert_rib_in_matches(real: &impl RibIn, reference: &RefRibIn) {
    let known = real.known_in(0, u32::MAX);
    assert_eq!(known, reference.known_prefixes());
    assert_eq!(real.entries(), reference.num_entries());
    for p in &known {
        let got = real.all(p);
        // The slot is one run, strictly sorted by (peer, path id).
        assert!(
            got.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)),
            "slot order for {p}: {got:?}"
        );
        assert_eq!(got, reference.all_paths(p), "all_paths order for {p}");
        for peer in reference.peers() {
            let run = real.from(peer, p);
            assert!(run.iter().all(|(r, _, _)| *r == peer));
            let got: Vec<(PathId, u32)> = run.iter().map(|(_, id, nh)| (*id, *nh)).collect();
            assert_eq!(got, reference.paths(peer, p));
        }
    }
    // Range queries must agree with the brute-force overlap filter
    // (what the AP-reassignment paths rely on).
    for (start, end) in RANGES {
        let brute: Vec<Ipv4Prefix> = reference
            .known_prefixes()
            .into_iter()
            .filter(|p| p.first_addr() <= end && p.last_addr() >= start)
            .collect();
        assert_eq!(real.known_in(start, end), brute);
    }
    // The peer registry only diverges from the reference in one
    // documented way: no-op withdrawals register the session (the old
    // `entry(peer).or_default()`), so real peers ⊇ reference.
    let real_peers = real.peers();
    assert!(reference.peers().iter().all(|p| real_peers.contains(p)));
}

/// The old Loc-RIB, and what `Chassis::selection_changes` used to be: a
/// count per prefix, bumped on every change, withdrawals included.
#[derive(Default)]
struct RefLoc {
    map: BTreeMap<Ipv4Prefix, u32>,
    changes: BTreeMap<Ipv4Prefix, u32>,
}

/// A Loc-RIB under test, answering by prefix (see [`RibIn`]).
trait Loc {
    fn set(&mut self, p: Ipv4Prefix, v: Option<u32>) -> bool;
    fn len(&self) -> usize;
    fn selections(&self) -> Vec<(Ipv4Prefix, u32)>;
    fn changes(&self) -> Vec<(Ipv4Prefix, u32)>;
    fn lookup(&self, addr: u32) -> Option<(Ipv4Prefix, u32)>;
}

impl Loc for (&mut PrefixIndex, &mut LocColumn<u32>) {
    fn set(&mut self, p: Ipv4Prefix, v: Option<u32>) -> bool {
        let id = self.0.resolve(p);
        self.1.set(id, v)
    }
    fn len(&self) -> usize {
        self.1.len()
    }
    fn selections(&self) -> Vec<(Ipv4Prefix, u32)> {
        self.1.iter(self.0).map(|(p, v)| (*p, *v)).collect()
    }
    fn changes(&self) -> Vec<(Ipv4Prefix, u32)> {
        self.1.iter_changes(self.0).map(|(p, c)| (*p, c)).collect()
    }
    fn lookup(&self, addr: u32) -> Option<(Ipv4Prefix, u32)> {
        self.1.lookup(self.0, addr).map(|(p, v)| (p, *v))
    }
}

const PROBES: [u32; 5] = [0, 7 << 26, 13 << 26, 40 << 26, u32::MAX];

/// One `set` on the table and on its model, then the full comparison.
fn set_and_compare_loc(
    real: &mut impl Loc,
    reference: &mut RefLoc,
    p: Ipv4Prefix,
    val: Option<u32>,
) {
    let a = real.set(p, val);
    let b = match val {
        Some(v) => reference.map.insert(p, v) != Some(v),
        None => reference.map.remove(&p).is_some(),
    };
    assert_eq!(a, b, "set change bit diverged at {p}");
    if b {
        *reference.changes.entry(p).or_default() += 1;
    }
    assert_eq!(real.len(), reference.map.len());
    let want: Vec<(Ipv4Prefix, u32)> = reference.changes.iter().map(|(p, c)| (*p, *c)).collect();
    assert_eq!(real.changes(), want, "change counts diverged");
    let want: Vec<(Ipv4Prefix, u32)> = reference.map.iter().map(|(p, v)| (*p, *v)).collect();
    assert_eq!(real.selections(), want, "iteration order diverged");
    // Longest-prefix match against the brute-force scan.
    for probe in PROBES {
        let want = reference
            .map
            .iter()
            .filter(|(p, _)| p.first_addr() <= probe && probe <= p.last_addr())
            .max_by_key(|(p, _)| p.len())
            .map(|(p, v)| (*p, *v));
        assert_eq!(real.lookup(probe), want);
    }
}

fn loc_op() -> impl Strategy<Value = (Ipv4Prefix, Option<u32>)> {
    (
        (0u32..48, prop::sample::select(vec![8u8, 12, 16, 24])),
        prop::option::of(0u32..6),
    )
        .prop_map(|((x, len), val)| (Ipv4Prefix::new(x << 26, len), val))
}

/// Prefixes of every length, /0 to /32: half scattered over the
/// address space, half from a small pool so that they nest and repeat.
fn any_prefix() -> impl Strategy<Value = Ipv4Prefix> {
    (any::<bool>(), any::<u32>(), 0u32..64, 0u8..=32)
        .prop_map(|(scatter, a, x, len)| Ipv4Prefix::new(if scatter { a } else { x << 26 }, len))
}

/// Index answers, by prefix — no id in them: `iter`, the overlap of
/// each range, the longest match among `live` at each probe.
type IndexAnswers = (
    Vec<Ipv4Prefix>,
    Vec<Vec<Ipv4Prefix>>,
    Vec<Option<Ipv4Prefix>>,
);

/// One generated RIB-Out write: group, prefix, and the `(path id,
/// attribute)` picks of its path set.
type GroupOp = (u8, Ipv4Prefix, Vec<(u8, u8)>);

fn index_observe(
    index: &PrefixIndex,
    ranges: &[(u32, u32)],
    probes: &[u32],
    live: &BTreeSet<Ipv4Prefix>,
) -> IndexAnswers {
    let pairs: Vec<(Ipv4Prefix, PrefixId)> = index.iter().map(|(p, id)| (*p, id)).collect();
    for (p, id) in &pairs {
        assert_eq!(index.id(p), Some(*id), "iter paired {p} with another's id");
    }
    let in_range = ranges.iter().map(|&(s, e)| {
        let hits = index.iter_overlapping(s, e);
        hits.map(|(p, _)| *p).collect()
    });
    let matches = probes.iter().map(|&a| {
        let hit = index.longest_match_where(a, |id| live.contains(index.prefix(id)));
        hit.map(|(p, id)| {
            assert_eq!(index.id(&p), Some(id));
            p
        })
    });
    (
        pairs.into_iter().map(|(p, _)| p).collect(),
        in_range.collect(),
        matches.collect(),
    )
}

fn index_model(
    set: &BTreeSet<Ipv4Prefix>,
    ranges: &[(u32, u32)],
    probes: &[u32],
    live: &BTreeSet<Ipv4Prefix>,
) -> IndexAnswers {
    let overlaps = |p: &Ipv4Prefix, s, e| p.first_addr() <= e && p.last_addr() >= s;
    let in_range = ranges.iter().map(|&(s, e)| {
        let hits = set.iter().filter(|p| overlaps(p, s, e));
        hits.copied().collect()
    });
    let matches = probes.iter().map(|&a| {
        let covers = live.iter().filter(|p| p.contains_addr(a));
        covers.max_by_key(|p| p.len()).copied()
    });
    (
        set.iter().copied().collect(),
        in_range.collect(),
        matches.collect(),
    )
}

/// What a router holds over its one index, less the roles around it.
#[derive(Default)]
struct Router {
    index: PrefixIndex,
    rib_in: [RibInColumn; 2],
    loc: LocColumn<u32>,
}

/// An address inside 240.1.2.0/24, itself inside 240.1.0.0/16 — outside
/// the generated pool, so only the scripted tail touches them.
const NESTED_PROBE: u32 = 0xF001_0203;

impl Router {
    /// Everything order-observable about the first Adj-RIB-In and the
    /// Loc-RIB, by prefix — no id in it.
    fn observe(&mut self) -> impl PartialEq + std::fmt::Debug {
        let Router { index, rib_in, loc } = self;
        let rib = (&mut *index, &mut rib_in[0]);
        let known: Vec<Vec<Ipv4Prefix>> =
            RANGES.iter().map(|(s, e)| rib.known_in(*s, *e)).collect();
        let paths: Vec<Vec<Route>> = known[0].iter().map(|p| rib.all(p)).collect();
        let entries = rib.entries();
        let loc = (&mut *index, loc);
        let probes = PROBES.iter().chain(&[NESTED_PROBE]);
        let lookups: Vec<_> = probes.map(|a| loc.lookup(*a)).collect();
        (
            known,
            paths,
            entries,
            loc.len(),
            loc.selections(),
            loc.changes(),
            lookups,
        )
    }
}

/// One step of a router's history.
#[derive(Clone, Debug)]
enum Op {
    Rib(RibOp),
    Loc(Ipv4Prefix, Option<u32>),
}

impl Op {
    /// The prefix the step touches; a peer drop touches them all.
    fn prefix(&self) -> Option<Ipv4Prefix> {
        match self {
            Op::Rib(RibOp::Set { addr, len, .. } | RibOp::Withdraw { addr, len, .. }) => {
                Some(Ipv4Prefix::new(*addr, *len))
            }
            Op::Rib(RibOp::DropPeer { .. }) => None,
            Op::Loc(p, _) => Some(*p),
        }
    }

    /// Applies the step to the router (and to the model of its first
    /// Adj-RIB-In); a peer drop returns its list.
    fn apply(&self, r: &mut Router, model: &mut RefRibIn) -> Vec<Ipv4Prefix> {
        let Router { index, rib_in, loc } = r;
        match self {
            Op::Rib(op) => apply_rib_op(&mut (index, &mut rib_in[0]), model, op),
            Op::Loc(p, v) => {
                (index, loc).set(*p, *v);
                Vec::new()
            }
        }
    }
}

/// The Adj-RIB-In's unit of storage: a route costs this, no container.
#[test]
fn adj_rib_in_entry_is_16_bytes() {
    assert_eq!(
        std::mem::size_of::<(RouterId, PathId, Arc<PathAttributes>)>(),
        16
    );
}

/// One row across the inline/spill boundary and back — 0 → 1 → 2 → 3 →
/// 2 → 0 entries, then again by other routes — through `set_paths`,
/// `withdraw` and `drop_peer`, the whole table checked against the model
/// after every step. The row sits on the column's second page, behind
/// 300 prefixes the column never stores, beside a two-route row on the
/// first.
#[test]
fn adj_rib_in_row_crosses_the_inline_spill_boundary() {
    let (mut index, mut column) = (PrefixIndex::new(), RibInColumn::new());
    let mut reference = RefRibIn::default();
    let neighbour = RibOp::Set {
        peer: 4,
        addr: 7 << 26,
        len: 8,
        ids: vec![(1, 0), (2, 0)],
        borrowed: false,
    };
    apply_rib_op(&mut (&mut index, &mut column), &mut reference, &neighbour);
    for x in 0..300u32 {
        index.resolve(Ipv4Prefix::new(0xC000_0000 + (x << 8), 24));
    }
    let (addr, len) = (5 << 26, 16);
    let set = |peer: u8, ids: &[(u8, u8)], borrowed: bool| RibOp::Set {
        peer,
        addr,
        len,
        ids: ids.to_vec(),
        borrowed,
    };
    let withdraw = |peer: u8| RibOp::Withdraw { peer, addr, len };
    let steps = [
        (set(2, &[(1, 0)], false), 1),
        (set(0, &[(1, 0)], true), 2),
        (set(2, &[(2, 0), (1, 0)], false), 3),
        (withdraw(0), 2),
        (RibOp::DropPeer { peer: 2 }, 0),
        (set(1, &[(1, 0), (2, 0), (3, 0)], true), 3),
        (set(1, &[(2, 1)], false), 1),
        (set(3, &[(1, 0), (2, 0)], true), 3),
        (set(0, &[(4, 0)], false), 4),
        (RibOp::DropPeer { peer: 3 }, 2),
        (set(1, &[(2, 1)], true), 2),
        (withdraw(1), 1),
        (withdraw(1), 1),
        (withdraw(0), 0),
    ];
    let p = Ipv4Prefix::new(addr, len);
    for (op, entries) in &steps {
        let mut real = (&mut index, &mut column);
        apply_rib_op(&mut real, &mut reference, op);
        assert_rib_in_matches(&real, &reference);
        let id = index.id(&p).expect("resolved by the first step");
        assert_eq!(id, 301, "on the second page");
        assert_eq!(column.row(id).len(), *entries, "after {op:?}");
        assert_eq!(column.num_entries(), *entries + 2);
    }
}

proptest! {
    #[test]
    fn adj_rib_in_equivalent_to_per_peer_btreemaps(ops in prop::collection::vec(rib_op(), 1..80)) {
        let (mut index, mut column) = (PrefixIndex::new(), RibInColumn::new());
        let mut reference = RefRibIn::default();
        for op in &ops {
            let mut real = (&mut index, &mut column);
            apply_rib_op(&mut real, &mut reference, op);
            assert_rib_in_matches(&real, &reference);
        }
    }

    #[test]
    fn loc_rib_equivalent_to_btreemap(ops in prop::collection::vec(loc_op(), 1..60)) {
        let (mut index, mut column) = (PrefixIndex::new(), LocColumn::new());
        let mut reference = RefLoc::default();
        for (p, val) in &ops {
            set_and_compare_loc(&mut (&mut index, &mut column), &mut reference, *p, *val);
        }
    }

    /// The arrangement a router runs: the same models, but the three
    /// tables are columns over one index, so every op on one of them
    /// hands out ids the other two must not be confused by.
    #[test]
    fn columns_on_one_index_equivalent_to_their_maps(ops in prop::collection::vec(
        (0u8..3, rib_op(), loc_op()),
        1..90,
    )) {
        let mut router = Router::default();
        let mut ref_in = [RefRibIn::default(), RefRibIn::default()];
        let mut ref_loc = RefLoc::default();
        for (table, rib_op, (p, val)) in &ops {
            let Router { index, rib_in, loc } = &mut router;
            match *table as usize {
                t @ (0 | 1) => {
                    apply_rib_op(&mut (&mut *index, &mut rib_in[t]), &mut ref_in[t], rib_op);
                }
                _ => set_and_compare_loc(&mut (&mut *index, &mut *loc), &mut ref_loc, *p, *val),
            }
            // All three after every op, whichever one it touched.
            for t in 0..2 {
                assert_rib_in_matches(&(&mut *index, &mut rib_in[t]), &ref_in[t]);
            }
            let loc = (&mut *index, &mut *loc);
            let want: Vec<(Ipv4Prefix, u32)> = ref_loc.map.iter().map(|(p, v)| (*p, *v)).collect();
            prop_assert_eq!(loc.selections(), want);
            let ordered: Vec<Ipv4Prefix> = index.iter().map(|(p, _)| *p).collect();
            prop_assert!(ordered.len() == index.len() && ordered.windows(2).all(|w| w[0] < w[1]));
        }
    }

    /// Ids never leak. One history, two routers, two arrival orders:
    /// between peer drops (which touch every prefix, so they stay put)
    /// the second router takes the steps grouped by prefix, highest
    /// prefix first — each prefix still sees its own steps in order, so
    /// both end in the same state, having handed out different ids.
    #[test]
    fn ids_never_reach_an_order_observable_result(history in prop::collection::vec(
        (any::<bool>(), rib_op(), loc_op()),
        1..90,
    )) {
        let mut ops: Vec<Op> = history
            .into_iter()
            .map(|(rib, rib_op, (p, v))| if rib { Op::Rib(rib_op) } else { Op::Loc(p, v) })
            .collect();
        // Scripted tail: a withdrawn /24 under a live /16.
        let (wide, narrow) = (Ipv4Prefix::new(0xF001_0000, 16), Ipv4Prefix::new(0xF001_0200, 24));
        ops.extend([Op::Loc(wide, Some(16)), Op::Loc(narrow, Some(24)), Op::Loc(narrow, None)]);
        let (mut a, mut b) = (Router::default(), Router::default());
        let (mut model_a, mut model_b) = (RefRibIn::default(), RefRibIn::default());
        for segment in ops.split_inclusive(|op| op.prefix().is_none()) {
            let mut regrouped: Vec<&Op> = segment.iter().collect();
            // Stable: a prefix's steps keep their order; the drop has
            // no prefix and stays at the end.
            regrouped.sort_by_key(|op| (op.prefix().is_none(), std::cmp::Reverse(op.prefix())));
            let dropped_a: Vec<_> = segment.iter().map(|op| op.apply(&mut a, &mut model_a)).collect();
            let mut dropped_b: Vec<_> =
                regrouped.into_iter().map(|op| op.apply(&mut b, &mut model_b)).collect();
            prop_assert_eq!(dropped_a.last(), dropped_b.last(), "drop_peer's list");
            dropped_b.pop();
            prop_assert!(dropped_b.iter().all(Vec::is_empty));
            prop_assert_eq!(a.observe(), b.observe());
        }
        let at_probe = (&mut a.index, &mut a.loc).lookup(NESTED_PROBE);
        prop_assert_eq!(at_probe, Some((wide, 16)), "falls through the withdrawn /24");
    }

    /// Two arrival orders — as drawn, and each (group, prefix)'s steps
    /// kept in order but regrouped by descending prefix — over prefixes
    /// of every length: the hashed group tables differ in history, the
    /// ordered walks may not.
    #[test]
    fn adj_rib_out_export_walk_equivalent_to_per_group_maps(ops in prop::collection::vec(
        (0u8..3, any_prefix(), prop::collection::vec((0u8..3, 0u8..2), 0..3)),
        1..120,
    )) {
        // Three groups with overlapping memberships; RouterId(7) is in
        // groups 0 and 2, RouterId(8) in 1 and 2.
        let members = [vec![RouterId(7)], vec![RouterId(8)], vec![RouterId(7), RouterId(8)]];
        let mut real = AdjRibOut::new();
        let mut regrouped_real = AdjRibOut::new();
        let mut reference: BTreeMap<u32, BTreeMap<Ipv4Prefix, PathSet>> = BTreeMap::new();
        for (g, m) in members.iter().enumerate() {
            real.define_group(g as u32, m.clone());
            regrouped_real.define_group(g as u32, m.clone());
            reference.insert(g as u32, BTreeMap::new());
        }
        for (g, p, ids) in &ops {
            let g = *g as u32;
            let set = RefRibIn::normalize(path_set(ids));
            let a = real.set_paths(g, *p, path_set(ids));
            let table = reference.get_mut(&g).unwrap();
            let b = if set.is_empty() {
                table.remove(p).is_some()
            } else if table.get(p) == Some(&set) {
                false
            } else {
                table.insert(*p, set);
                true
            };
            prop_assert_eq!(a, b, "group set_paths change bit diverged");
        }
        let mut regrouped: Vec<&GroupOp> = ops.iter().collect();
        regrouped.sort_by_key(|(g, p, _)| (std::cmp::Reverse(*p), *g));
        for (g, p, ids) in regrouped {
            regrouped_real.set_paths(*g as u32, *p, path_set(ids));
        }
        let entries = reference.values().flat_map(|t| t.values()).map(|s| s.len()).sum::<usize>();
        for real in [&real, &regrouped_real] {
            // Per-group iteration order.
            for (g, table) in &reference {
                let got: Vec<(Ipv4Prefix, &PathSet)> = real.iter_group(*g).collect();
                let want: Vec<(Ipv4Prefix, &PathSet)> = table.iter().map(|(p, s)| (*p, s)).collect();
                prop_assert_eq!(got, want, "iter_group order for group {}", g);
            }
            prop_assert_eq!(real.num_entries(), entries);
            prop_assert_eq!(real.slots(), reference.values().map(BTreeMap::len).sum::<usize>());
            // Export walks: (group, prefix) ascending over the peer's
            // groups — the resync order every session cursor replays.
            for peer in [RouterId(7), RouterId(8), RouterId(9)] {
                let got: Vec<(u32, Ipv4Prefix, &PathSet)> = real.export_walk(peer).collect();
                let want: Vec<(u32, Ipv4Prefix, &PathSet)> = reference
                    .iter()
                    .filter(|(g, _)| members[**g as usize].contains(&peer))
                    .flat_map(|(g, t)| t.iter().map(move |(p, set)| (*g, *p, set)))
                    .collect();
                prop_assert_eq!(got, want, "export_walk diverged for {:?}", peer);
            }
        }
    }

    /// The index alone, over prefixes of every length: one multiset in
    /// two arrival orders, against a `BTreeSet` model — `iter`, range
    /// queries over random ranges, and longest match under a random
    /// predicate (standing for a Loc-RIB's selections).
    #[test]
    fn index_order_and_longest_match_survive_the_hash(
        drawn in prop::collection::vec(any_prefix(), 0..200),
        repeats in prop::collection::vec(any::<usize>(), 0..40),
        dead in prop::collection::vec(any::<usize>(), 0..40),
        ranges in prop::collection::vec((any::<u32>(), any::<u32>()), 0..8),
        probes in prop::collection::vec(any::<u32>(), 0..16),
    ) {
        // The multiset: drawn, /0, a /32, a /16 with a /24 inside it,
        // and some of them again.
        let (default, host) = (Ipv4Prefix::DEFAULT, Ipv4Prefix::new(0x0A01_0203, 32));
        let (wide, narrow) = (Ipv4Prefix::new(0xF001_0000, 16), Ipv4Prefix::new(0xF001_0200, 24));
        let mut arrivals = drawn;
        arrivals.extend([default, host, wide, narrow]);
        let again: Vec<Ipv4Prefix> = repeats.iter().map(|i| arrivals[i % arrivals.len()]).collect();
        arrivals.extend(again);
        let set: BTreeSet<Ipv4Prefix> = arrivals.iter().copied().collect();
        // Withdrawn: a random subset, the /32, and the /24 under the
        // live /16.
        let mut live = set.clone();
        for i in &dead {
            live.remove(&arrivals[i % arrivals.len()]);
        }
        live.insert(wide);
        live.remove(&narrow);
        live.remove(&host);

        let mut ranges: Vec<(u32, u32)> = ranges.into_iter().map(|(a, b)| (a.min(b), a.max(b))).collect();
        ranges.extend([(0, u32::MAX), (NESTED_PROBE, NESTED_PROBE), (0, 1 << 28)]);
        let mut probes = probes;
        probes.extend([NESTED_PROBE, host.addr()]);
        probes.extend(set.iter().flat_map(|p| [p.first_addr(), p.last_addr()]).take(64));

        let (mut a, mut b) = (PrefixIndex::new(), PrefixIndex::new());
        for p in &arrivals {
            a.resolve(*p);
        }
        for p in arrivals.iter().rev() {
            b.resolve(*p);
        }
        prop_assert_eq!(a.len(), set.len());
        let want = index_model(&set, &ranges, &probes, &live);
        prop_assert_eq!(&index_observe(&a, &ranges, &probes, &live), &want);
        prop_assert_eq!(&index_observe(&b, &ranges, &probes, &live), &want);
        let at = |addr| a.longest_match_where(addr, |id| live.contains(a.prefix(id))).map(|m| m.0);
        prop_assert_eq!(at(NESTED_PROBE), Some(wide), "falls through the withdrawn /24");
        let everything = |addr| a.longest_match_where(addr, |_| true).map(|m| m.0);
        prop_assert_eq!(everything(host.addr()), Some(host));
    }

    /// The benchmark's adapters, call for call, against the path they
    /// wrap. One op sequence goes through `AdjRibIn` / `LocRib` and
    /// through an index with its columns; after each op `set_paths`,
    /// `num_entries`, `all_paths`, `set` and `lookup` must answer alike,
    /// and a `CandidateBatch` loaded with the prefix's candidates must
    /// keep what `best_as_level_of` keeps of the column's candidates.
    #[test]
    fn compat_agrees_with_index_and_columns(ops in prop::collection::vec(
        (rib_op(), loc_op()),
        1..60,
    )) {
        let (mut rib, mut loc) = (AdjRibIn::new(), LocRib::<u32>::new());
        let mut batch = CandidateBatch::new();
        let Router { mut index, rib_in: [mut column, _], loc: mut loc_column } = Router::default();
        let cfg = DecisionConfig::default();
        for (rib_op, (lp, lv)) in &ops {
            let set = match rib_op {
                RibOp::Set { peer, addr, len, ids, .. } => Some((peer, addr, len, path_set(ids))),
                RibOp::Withdraw { peer, addr, len } => Some((peer, addr, len, Vec::new())),
                RibOp::DropPeer { .. } => None,
            };
            if let Some((peer, addr, len, set)) = set {
                let (peer, p) = (RouterId(10 + *peer as u32), Ipv4Prefix::new(*addr, *len));
                let id = index.resolve(p);
                prop_assert_eq!(rib.set_paths(peer, p, set.clone()), column.set_paths(peer, id, set));
                prop_assert_eq!(rib.num_entries(), column.num_entries());
                prop_assert_eq!(routes(rib.all_paths(&p)), routes(column.all_paths(id)));
                let cands: Vec<_> = column
                    .all_paths(id)
                    .map(|(peer, _, attrs)| Candidate {
                        attrs: attrs.clone(),
                        source: RouteSource::Ibgp { peer },
                        neighbor_id: peer.0,
                    })
                    .collect();
                batch.load(&cands);
                prop_assert_eq!(batch.survivors(&cfg), best_as_level_of(column.candidates(id), &cfg));
            }
            let id = index.resolve(*lp);
            prop_assert_eq!(loc.set(*lp, *lv), loc_column.set(id, *lv));
            for probe in PROBES {
                let want = loc_column.lookup(&index, probe).map(|(p, v)| (p, *v));
                prop_assert_eq!(loc.lookup(probe).map(|(p, v)| (p, *v)), want);
            }
        }
    }
}
