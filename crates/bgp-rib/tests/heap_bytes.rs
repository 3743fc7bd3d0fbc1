//! `heap_bytes()` against a counting allocator: the byte gauges must
//! account for what the RIB tables really hold, freshly built and after
//! churn, to within 2 % — the slack being the small `BTreeSet` /
//! `BTreeMap` of peers and groups, which the gauges leave out.
//!
//! The shape is a generated Tier-1 table's: 1 000 /24s scattered over
//! the address space, three peers (or peer groups) each. Attributes are
//! created before a measurement starts; the tables share them by `Arc`.
//!
//! The first three tests measure one table whole — an Adj-RIB-In or
//! Loc-RIB column together with the index it is over, and the per-group
//! Adj-RIB-Out, whose tries hold their path sets inline; the last
//! measures the parts a router holds — one `PrefixIndex`, an Adj-RIB-In
//! column and a Loc-RIB column over it — each against its own bytes, so
//! a gauge that counted the shared index in a column (or not at all)
//! would show. One more writes the shape of a reflector's managed table
//! under network-wide ids — one id in eight, scattered, so every page
//! stays sparse — and measures each column against its own bytes.

use bgp_rib::{AdjRibOut, HeapBytes, LocColumn, PathSet, PrefixId, PrefixIndex, RibInColumn};
use bgp_types::{Ipv4Prefix, NextHop, PathAttributes, PathId, RouterId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// Bytes this thread has allocated and not freed. Per thread, so
    /// that tests running side by side do not see each other.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

struct Counting;

fn count(delta: isize) {
    // `try_with`: the allocator outlives a thread's locals.
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the bookkeeping touches no allocator
// state and does not allocate (a `const` thread-local `Cell`).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize));
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn live() -> isize {
    LIVE.with(Cell::get)
}

fn scattered_slash24s(n: usize) -> Vec<Ipv4Prefix> {
    let mut x = 20101220u64;
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let p = Ipv4Prefix::new((x >> 32) as u32, 24);
        if !out.contains(&p) {
            out.push(p);
        }
    }
    out
}

fn attrs(n: u32) -> Vec<Arc<PathAttributes>> {
    (0..n)
        .map(|i| Arc::new(PathAttributes::local(NextHop(i))))
        .collect()
}

/// `k` paths, ids from 1, attributes cycling from `i`.
fn paths(attrs: &[Arc<PathAttributes>], i: usize, k: usize) -> PathSet {
    (0..k)
        .map(|j| (PathId(j as u32 + 1), attrs[(i + j) % attrs.len()].clone()))
        .collect()
}

#[track_caller]
fn assert_accounts_for(reported: HeapBytes, measured: isize, what: &str) {
    let (reported, measured) = (reported.total() as f64, measured as f64);
    assert!(
        (reported - measured).abs() <= 0.02 * measured,
        "{what}: heap_bytes() {reported} vs {measured} live bytes"
    );
}

#[test]
fn adj_rib_in_accounts_for_its_heap() {
    let prefixes = scattered_slash24s(1000);
    let attrs = attrs(16);
    let peers = [RouterId(7), RouterId(3), RouterId(11)];
    let before = live();
    let (mut index, mut rib) = (PrefixIndex::new(), RibInColumn::new());
    let known =
        |index: &PrefixIndex, rib: &RibInColumn| rib.known_prefixes_in(index, 0, u32::MAX).count();
    for (i, p) in prefixes.iter().enumerate() {
        let id = index.resolve(*p);
        for (k, peer) in peers.iter().enumerate() {
            rib.set_paths(*peer, id, paths(&attrs, i, 1 + (i + k) % 3));
        }
    }
    assert_eq!(known(&index, &rib), 1000);
    let bytes = |index: &PrefixIndex, rib: &RibInColumn| index.heap_bytes() + rib.heap_bytes();
    assert_accounts_for(bytes(&index, &rib), live() - before, "built");
    // Churn: replace sets with longer and shorter ones, withdraw a
    // third of the prefixes from every peer, re-insert half of those.
    for round in 0..3 {
        for (i, p) in prefixes.iter().enumerate() {
            let id = index.resolve(*p);
            for (k, peer) in peers.iter().enumerate() {
                match (i + round) % 3 {
                    0 => rib.withdraw(*peer, id),
                    _ => {
                        rib.set_paths(*peer, id, paths(&attrs, i + round, 1 + (i + k + round) % 4))
                    }
                };
            }
        }
        for (i, p) in prefixes.iter().enumerate().filter(|(i, _)| i % 6 == 0) {
            let single = vec![(PathId(0), attrs[i % 16].clone())];
            rib.set_paths(peers[i % 3], index.resolve(*p), single);
        }
    }
    assert!(known(&index, &rib) < 1000);
    assert_accounts_for(bytes(&index, &rib), live() - before, "churned");
}

#[test]
fn loc_rib_accounts_for_its_heap() {
    let prefixes = scattered_slash24s(1000);
    let attrs = attrs(16);
    let before = live();
    let mut index = PrefixIndex::new();
    let mut rib: LocColumn<Arc<PathAttributes>> = LocColumn::new();
    for (i, p) in prefixes.iter().enumerate() {
        rib.set(index.resolve(*p), Some(attrs[i % 16].clone()));
    }
    let bytes = |index: &PrefixIndex, rib: &LocColumn<_>| index.heap_bytes() + rib.heap_bytes();
    assert_accounts_for(bytes(&index, &rib), live() - before, "built");
    for round in 0..3 {
        for (i, p) in prefixes.iter().enumerate() {
            let v = ((i + round) % 3 != 0).then(|| attrs[(i + round) % 16].clone());
            rib.set(index.resolve(*p), v);
        }
    }
    assert!(rib.len() < 1000);
    assert_accounts_for(bytes(&index, &rib), live() - before, "churned");
}

#[test]
fn adj_rib_out_accounts_for_its_heap() {
    let prefixes = scattered_slash24s(1000);
    let attrs = attrs(16);
    let before = live();
    let mut rib = AdjRibOut::new();
    for g in 0..3 {
        rib.define_group(g, vec![RouterId(g), RouterId(g + 10)]);
    }
    for (i, p) in prefixes.iter().enumerate() {
        for g in 0..3 {
            rib.set_paths(g, *p, paths(&attrs, i, 1 + (i + g as usize) % 3));
        }
    }
    assert_accounts_for(rib.heap_bytes(), live() - before, "built");
    for round in 0..3 {
        for (i, p) in prefixes.iter().enumerate() {
            for g in 0..3 {
                let k = (i + round + g as usize) % 4; // 0 withdraws
                rib.set_paths(g, *p, paths(&attrs, i + round, k));
            }
        }
    }
    assert_accounts_for(rib.heap_bytes(), live() - before, "churned");
}

/// The shape of an ARR's managed table under network-wide ids: one id
/// in eight of each of eight pages, written in scattered order, so every
/// page stays sparse. Each column's bytes — the list of pages, the slot
/// maps, the chunks and the spilled rows — must be what the allocator
/// holds for it.
#[test]
fn scattered_columns_account_for_their_heap() {
    let prefixes = scattered_slash24s(2048);
    let attrs = attrs(16);
    let peers = [RouterId(7), RouterId(3), RouterId(11)];
    let mut index = PrefixIndex::new();
    let ids: Vec<PrefixId> = prefixes.iter().map(|p| index.resolve(*p)).collect();
    // 167 is odd, so `k * 167 % 2048` visits every id once, out of order.
    let managed: Vec<PrefixId> = (0..2048u32)
        .map(|k| ids[(k * 167 % 2048) as usize])
        .filter(|id| id % 8 == 5)
        .collect();
    assert_eq!(managed.len(), 256);

    let before = live();
    let mut rib = RibInColumn::new();
    for (i, id) in managed.iter().enumerate() {
        for (k, peer) in peers.iter().enumerate() {
            rib.set_paths(*peer, *id, paths(&attrs, i, 1 + (i + k) % 3));
        }
    }
    assert_eq!(rib.slots(), 256, "rows held are rows written");
    assert_accounts_for(rib.heap_bytes(), live() - before, "rib-in built");
    for round in 0..3 {
        for (i, id) in managed.iter().enumerate() {
            for (k, peer) in peers.iter().enumerate() {
                match (i + round) % 3 {
                    0 => rib.withdraw(*peer, *id),
                    _ => rib.set_paths(
                        *peer,
                        *id,
                        paths(&attrs, i + round, 1 + (i + k + round) % 4),
                    ),
                };
            }
        }
    }
    assert_eq!(rib.slots(), 256, "a withdrawn row stays held");
    assert_accounts_for(rib.heap_bytes(), live() - before, "rib-in churned");

    let before = live();
    let mut loc: LocColumn<Arc<PathAttributes>> = LocColumn::new();
    for (i, id) in managed.iter().enumerate() {
        loc.set(*id, Some(attrs[i % 16].clone()));
    }
    assert_eq!((loc.slots(), loc.len()), (256, 256));
    assert_accounts_for(loc.heap_bytes(), live() - before, "loc built");
}

#[test]
fn index_and_columns_each_account_for_their_own_heap() {
    let prefixes = scattered_slash24s(1000);
    let attrs = attrs(16);
    let peers = [RouterId(7), RouterId(3), RouterId(11)];
    let mut ids: Vec<PrefixId> = Vec::with_capacity(prefixes.len());

    let before = live();
    let mut index = PrefixIndex::new();
    ids.extend(prefixes.iter().map(|p| index.resolve(*p)));
    let index_bytes = live() - before;
    assert_accounts_for(index.heap_bytes(), index_bytes, "index built");
    assert_eq!(index.heap_bytes().total(), index.heap_bytes().index);

    let before_in = live();
    let mut rib_in = RibInColumn::new();
    for (i, id) in ids.iter().enumerate() {
        for (k, peer) in peers.iter().enumerate() {
            rib_in.set_paths(*peer, *id, paths(&attrs, i, 1 + (i + k) % 3));
        }
    }
    let in_bytes = live() - before_in;
    assert_accounts_for(rib_in.heap_bytes(), in_bytes, "rib-in column built");

    let before_loc = live();
    let mut loc: LocColumn<Arc<PathAttributes>> = LocColumn::new();
    for (i, id) in ids.iter().enumerate() {
        loc.set(*id, Some(attrs[i % 16].clone()));
    }
    let loc_bytes = live() - before_loc;
    assert_accounts_for(loc.heap_bytes(), loc_bytes, "loc column built");
    assert_eq!((rib_in.heap_bytes() + loc.heap_bytes()).index, 0);

    // Churn (the whole-table tests' rounds): the columns change under
    // an index that, grow-only and fully grown, must not.
    let before_churn = live();
    for round in 0..3 {
        for (i, p) in prefixes.iter().enumerate() {
            let id = index.resolve(*p);
            for (k, peer) in peers.iter().enumerate() {
                match (i + round) % 3 {
                    0 => rib_in.withdraw(*peer, id),
                    _ => rib_in.set_paths(
                        *peer,
                        id,
                        paths(&attrs, i + round, 1 + (i + k + round) % 4),
                    ),
                };
            }
            let v = ((i + round) % 3 != 0).then(|| attrs[(i + round) % 16].clone());
            loc.set(id, v);
        }
    }
    assert!(rib_in.known_prefixes_in(&index, 0, u32::MAX).count() < 1000 && loc.len() < 1000);
    let grew = live() - before_churn;
    assert_accounts_for(index.heap_bytes(), index_bytes, "index after churn");
    assert_accounts_for(
        rib_in.heap_bytes() + loc.heap_bytes(),
        in_bytes + loc_bytes + grew,
        "columns churned",
    );
}
