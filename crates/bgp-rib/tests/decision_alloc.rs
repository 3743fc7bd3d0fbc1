//! The decision process's allocation contract, held by a counting
//! allocator of this test's own (an integration test is its own
//! crate, so `bgp-rib` itself stays `#![forbid(unsafe_code)]`):
//! `best_path` allocates nothing for up to 32 candidates and one spill
//! buffer beyond; `best_as_level` adds only the `Vec` it returns.

use bgp_rib::{best_as_level, best_path, Candidate, DecisionConfig, MedMode};
use bgp_types::{AsPath, Asn, Med, NextHop, PathAttributes, RouteSource, RouterId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    // Per thread, so the harness and sibling tests cannot disturb a
    // count; const-initialised, so reading it never allocates.
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

/// Allocations `f` makes on this thread.
fn allocations_in<R>(f: impl FnOnce() -> R) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    std::hint::black_box(f());
    ALLOCATIONS.with(Cell::get) - before
}

/// `n` candidates over three neighbour ASes with tying attributes, so
/// every step of the elimination has work to do; every fifth next hop
/// is unreachable under [`igp`].
fn candidates(n: usize) -> Vec<Candidate> {
    (0..n as u32)
        .map(|i| {
            let mut attrs =
                PathAttributes::ebgp(AsPath::sequence([Asn(1 + i % 3), Asn(9)]), NextHop(i));
            attrs.med = Some(Med(i % 2));
            Candidate {
                attrs: Arc::new(attrs),
                source: RouteSource::Ibgp {
                    peer: RouterId(100 + i),
                },
                neighbor_id: 100 + i,
            }
        })
        .collect()
}

fn igp(nh: NextHop) -> Option<u32> {
    (nh.0 % 5 != 4).then_some(nh.0 % 3)
}

fn configs() -> [DecisionConfig; 2] {
    [MedMode::SameNeighborAs, MedMode::AlwaysCompare].map(|med| DecisionConfig {
        med,
        use_cluster_list_len: true,
    })
}

#[test]
fn best_path_allocates_nothing_up_to_capacity_and_once_beyond() {
    for cfg in configs() {
        for n in 0..=32 {
            let cands = candidates(n);
            assert_eq!(
                allocations_in(|| best_path(&cands, &cfg, &igp)),
                0,
                "{n} candidates, {cfg:?}"
            );
        }
        for n in [33, 48, 200] {
            let cands = candidates(n);
            assert_eq!(
                allocations_in(|| best_path(&cands, &cfg, &igp)),
                1,
                "{n} candidates, {cfg:?}"
            );
        }
    }
}

#[test]
fn best_as_level_allocates_only_what_it_returns() {
    for cfg in configs() {
        assert_eq!(allocations_in(|| best_as_level(&[], &cfg)), 0);
        for n in 1..=32 {
            let cands = candidates(n);
            assert_eq!(
                allocations_in(|| best_as_level(&cands, &cfg)),
                1,
                "{n} candidates, {cfg:?}"
            );
        }
        for n in [33, 48, 200] {
            let cands = candidates(n);
            assert_eq!(
                allocations_in(|| best_as_level(&cands, &cfg)),
                2,
                "{n} candidates, {cfg:?}"
            );
        }
    }
}
