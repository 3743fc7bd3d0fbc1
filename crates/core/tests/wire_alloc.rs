//! The byte transport's allocation contract, held by a counting
//! allocator of this test's own (an integration test is its own crate,
//! so `abrr` itself stays free of `unsafe`):
//!
//! * a warm [`wire::Decoder`] decodes a burst whose attribute blocks it
//!   recognises by their bytes with exactly two allocations, the path
//!   set and its `Arc`; each set the interner does not hold adds the
//!   owned set's `Arc` and its one tail; a withdrawal allocates nothing;
//! * `encode_frame` allocates the image and its `Arc`, and
//!   `wire_bytes` nothing.
//!
//! One `#[test]`: the interner is process-wide, and the miss below
//! relies on knowing every set this binary has interned.

use abrr::msg::Plane;
use abrr::wire::{self, Decoder};
use abrr::BgpMsg;
use bgp_types::{
    AsPath, Asn, ClusterId, Community, ExtCommunity, Ipv4Prefix, NextHop, OriginatorId,
    PathAttributes, PathId,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    // Per thread, so the harness cannot disturb a count;
    // const-initialised, so reading it never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn count_one() {
    // Ignored once the thread's locals are gone (thread teardown).
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping touches
// only a thread-local counter and never the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's obligations on `layout` pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout` (caller's obligation).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: as for `dealloc`; `new_size` is the caller's obligation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// What `f` returns, and the allocations it made on this thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let r = std::hint::black_box(f());
    (r, ALLOCATIONS.with(Cell::get) - before)
}

/// A reflected set with every list attribute, so a decode writes all
/// four parts of the tail.
fn set(seed: u32) -> PathAttributes {
    let mut a = PathAttributes::ebgp(
        AsPath::sequence([Asn(seed), Asn(3356), Asn(15169)]),
        NextHop(seed),
    )
    .with_local_pref(100 + seed);
    a.originator_id = Some(OriginatorId(seed));
    a.with_lists(
        a.as_path(),
        [Community::new(7018, seed as u16)],
        [ExtCommunity::ABRR_REFLECTED],
        [ClusterId(seed), ClusterId(1)],
    )
}

fn msg(paths: Vec<(PathId, Arc<PathAttributes>)>) -> BgpMsg {
    BgpMsg {
        prefix: "10.0.0.0/8".parse::<Ipv4Prefix>().unwrap(),
        paths: Arc::new(paths),
        plane: Plane::Abrr,
    }
}

#[test]
fn the_byte_transport_allocates_only_what_it_returns() {
    let sets: Vec<_> = (1..=3).map(|i| bgp_types::intern(set(i))).collect();
    // Five paths over three sets, out of path-id order: three UPDATEs.
    let picks = [(4, 0), (1, 1), (5, 0), (2, 2), (3, 1)];
    let burst = msg(picks
        .iter()
        .map(|&(id, s)| (PathId(id), sets[s].clone()))
        .collect());

    let (frame, allocs) = counted(|| wire::encode_frame(&burst).unwrap());
    assert_eq!(allocs, 2, "encode_frame: the image and its Arc");
    assert_eq!(counted(|| burst.wire_bytes(true)).1, 0, "wire_bytes");
    let withdrawal = BgpMsg::withdraw(burst.prefix, Plane::Abrr);
    assert_eq!(counted(|| wire::encode_frame(&withdrawal).unwrap()).1, 2);
    assert_eq!(counted(|| withdrawal.wire_bytes(true)).1, 0);

    let mut ingress = Decoder::default();
    // The first decode parses the blocks and registers them, the second
    // finds them by their bytes; each grows the buffers it uses, and
    // later decodes reuse them.
    let first = ingress.decode(&frame).unwrap();
    assert_eq!(ingress.decode(&frame).unwrap(), first);
    let (decoded, allocs) = counted(|| ingress.decode(&frame).unwrap());
    assert_eq!(
        allocs, 2,
        "a decode whose sets all hit: the set and its Arc"
    );
    assert_eq!(decoded, first);
    let ids: Vec<u32> = decoded.paths.iter().map(|(id, _)| id.0).collect();
    assert_eq!(ids, [1, 2, 3, 4, 5]);
    assert_eq!(decoded.paths.capacity(), 5, "built at its final size");
    for (id, a) in decoded.paths.iter() {
        let (_, s) = picks.iter().find(|(p, _)| *p == id.0).unwrap();
        assert!(
            Arc::ptr_eq(a, &sets[*s]),
            "path {id:?} shares the interned set"
        );
    }
    let (gone, allocs) = counted(|| ingress.decode(&wire::encode_frame(&withdrawal).unwrap()));
    assert!(gone.unwrap().paths.is_empty());
    assert_eq!(
        allocs, 2,
        "the withdrawal's image and Arc, and no set: the empty set is shared"
    );

    // A set the interner no longer holds: its slot and its block's entry
    // are dead, so the miss reuses both and the registry allocates
    // nothing of its own.
    let fourth = bgp_types::intern(set(4));
    let lonely = wire::encode_frame(&msg(vec![(PathId(9), fourth.clone())])).unwrap();
    drop(ingress.decode(&lonely).unwrap());
    drop(fourth);
    let before = bgp_types::intern::stats();
    let (decoded, allocs) = counted(|| ingress.decode(&lonely).unwrap());
    assert_eq!(bgp_types::intern::stats().misses, before.misses + 1);
    assert_eq!(
        allocs,
        2 + 2,
        "a miss adds the owned set: its Arc and its one tail"
    );
    assert_eq!(*decoded.paths[0].1, set(4));
    // Its block is now known again, and a hit allocates no set.
    let (again, allocs) = counted(|| ingress.decode(&lonely).unwrap());
    assert_eq!(bgp_types::intern::stats().misses, before.misses + 1);
    assert_eq!(allocs, 2, "a hit: the path set and its Arc");
    assert!(Arc::ptr_eq(&again.paths[0].1, &decoded.paths[0].1));
}
