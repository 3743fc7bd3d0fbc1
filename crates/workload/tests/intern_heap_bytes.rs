//! `bgp_types::intern::stats().heap_bytes` against a counting allocator:
//! the interner's gauge must account for the attribute sets it holds —
//! each `ArcInner` and each tail — and its table, to within 2 %.
//!
//! The sets are a generated Tier-1 model's, each with the reflections a
//! run makes of it (a TRR's: ORIGINATOR_ID and a cluster id prepended;
//! an ARR's: ORIGINATOR_ID and the reflected marker), so tails of every
//! list occur. This file holds one test: the interner is process-wide,
//! and no other test may intern while it measures.

use bgp_types::{intern, ClusterId, OriginatorId, PathAttributes};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashSet;
use workload::{Tier1Config, Tier1Model};

thread_local! {
    /// Bytes this thread has allocated and not freed.
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

#[test]
fn heap_bytes_match_what_the_interned_sets_hold() {
    let model = Tier1Model::generate(Tier1Config {
        n_prefixes: 3_000,
        ..Tier1Config::default()
    });
    let mut sets: HashSet<PathAttributes> = HashSet::new();
    for route in model.prefixes.iter().flat_map(|p| &p.routes) {
        let a = &*route.attrs;
        let clusters = [ClusterId(route.router.0 % 13 + 1)]
            .into_iter()
            .chain(a.cluster_list());
        let mut trr = a.with_lists(a.as_path(), a.communities(), a.ext_communities(), clusters);
        trr.originator_id = Some(OriginatorId(route.router.0));
        let mut arr = a.with_abrr_reflected();
        arr.originator_id = Some(OriginatorId(route.router.0));
        sets.extend([a.clone(), trr, arr]);
    }
    drop(model);
    let sets: Vec<PathAttributes> = sets.into_iter().collect();
    assert!(sets.len() > 1_000, "{} sets", sets.len());
    assert!(sets.iter().any(|a| !a.cluster_list().is_empty()));
    bgp_types::intern::purge();

    let mut held = Vec::with_capacity(sets.len());
    let (live0, gauge0) = (live(), bgp_types::intern::stats().heap_bytes);
    held.extend(sets.iter().map(|a| intern(a.clone())));
    let counted = (live() - live0) as f64;
    let gauged = bgp_types::intern::stats().heap_bytes as f64 - gauge0 as f64;
    assert_eq!(bgp_types::intern::stats().entries, sets.len());
    assert!(
        (gauged - counted).abs() <= 0.02 * counted,
        "gauge {gauged} B against {counted} B allocated for {} sets",
        held.len()
    );
}
