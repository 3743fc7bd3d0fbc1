//! Survivor-set tests for decision steps 1–4 (paper Table 2).
//!
//! The paper's central observation is that steps 1–4 are *AS-level*:
//! every router in the AS computes the same survivor set from the same
//! candidates, which is what lets an ARR advertise the "best AS-level
//! routes" on behalf of its partition (§2.1). These tests pin the
//! exact survivor set — not just the final winner — for each step,
//! with particular attention to MED's same-neighbor-AS scoping.

use bgp_rib::{best_as_level, best_path, Candidate, DecisionConfig, MedMode};
use bgp_types::{
    AsPath, Asn, LocalPref, Med, NextHop, Origin, PathAttributes, RouteSource, SegmentKind,
};
use std::sync::Arc;

/// An eBGP-learned candidate with the given AS path; the session
/// address doubles as next hop and neighbor id so each candidate is
/// distinguishable at steps 6–8.
fn route(asns: &[u32], addr: u32) -> Candidate {
    Candidate {
        attrs: Arc::new(PathAttributes::ebgp(
            AsPath::sequence(asns.iter().copied().map(Asn)),
            NextHop(addr),
        )),
        source: RouteSource::Ebgp {
            peer_as: Asn(*asns.first().unwrap_or(&1)),
            peer_addr: addr,
        },
        neighbor_id: addr,
    }
}

fn with_lp(mut c: Candidate, lp: u32) -> Candidate {
    Arc::make_mut(&mut c.attrs).local_pref = Some(LocalPref(lp));
    c
}

fn with_med(mut c: Candidate, med: u32) -> Candidate {
    Arc::make_mut(&mut c.attrs).med = Some(Med(med));
    c
}

fn with_origin(mut c: Candidate, origin: Origin) -> Candidate {
    Arc::make_mut(&mut c.attrs).origin = origin;
    c
}

fn flat_igp(nh: NextHop) -> Option<u32> {
    Some(nh.0)
}

/// Step 1: only the highest LOCAL_PREF survives, even against shorter
/// AS paths; an absent LOCAL_PREF ranks at the default (100).
#[test]
fn step1_survivors_are_exactly_the_top_local_pref() {
    let cands = vec![
        with_lp(route(&[1], 1), 200),
        with_lp(route(&[2], 2), 200),
        with_lp(route(&[3], 3), 100),
        route(&[4], 4), // default lp = 100, shorter than nothing but still loses
    ];
    assert_eq!(
        best_as_level(&cands, &DecisionConfig::default()),
        vec![0, 1]
    );
}

/// Step 2 among step-1 ties: shortest AS_PATH, with an AS_SET counting
/// as one hop (RFC 4271 §9.1.2.2(a)).
#[test]
fn step2_as_set_counts_as_one_hop() {
    let mut set_path = route(&[1], 1);
    let mut path = AsPath::sequence([Asn(1)]);
    path.push_segment(SegmentKind::Set, [Asn(2), Asn(3), Asn(4)]);
    set_path.attrs = Arc::new(set_path.attrs.with_lists(path.borrowed(), [], [], []));
    let cands = vec![
        set_path,             // 4 ASes but path_len 2
        route(&[5, 6], 2),    // path_len 2
        route(&[7, 8, 9], 3), // path_len 3: eliminated
    ];
    assert_eq!(
        best_as_level(&cands, &DecisionConfig::default()),
        vec![0, 1]
    );
}

/// Step 3 among step-2 ties: lowest ORIGIN (IGP < EGP < Incomplete).
#[test]
fn step3_survivors_share_the_lowest_origin() {
    let cands = vec![
        with_origin(route(&[1], 1), Origin::Igp),
        with_origin(route(&[2], 2), Origin::Egp),
        with_origin(route(&[3], 3), Origin::Incomplete),
        with_origin(route(&[4], 4), Origin::Igp),
    ];
    assert_eq!(
        best_as_level(&cands, &DecisionConfig::default()),
        vec![0, 3]
    );
}

/// Step 4, equal neighbor AS: MEDs are compared and only the group's
/// minimum survives — ties for that minimum all survive.
#[test]
fn step4_med_compared_within_equal_neighbor_as() {
    let cands = vec![
        with_med(route(&[1, 7], 1), 10), // AS1, loses to the 5s
        with_med(route(&[1, 8], 2), 5),  // AS1, group minimum
        with_med(route(&[1, 9], 3), 5),  // AS1, ties the minimum
    ];
    assert_eq!(
        best_as_level(&cands, &DecisionConfig::default()),
        vec![1, 2]
    );
}

/// Step 4, unequal neighbor AS: MEDs are *not* comparable, so a large
/// MED from another AS survives alongside a small one
/// (RFC 4271 §9.1.2.2(c); the grouping key is the leftmost AS).
#[test]
fn step4_med_ignored_across_unequal_neighbor_as() {
    let cands = vec![
        with_med(route(&[1, 7], 1), 50),
        with_med(route(&[2, 7], 2), 10),
    ];
    let cfg = DecisionConfig::default();
    assert_eq!(best_as_level(&cands, &cfg), vec![0, 1]);
    // The vendor always-compare knob collapses the groups: only the
    // global minimum survives.
    let always = DecisionConfig {
        med: MedMode::AlwaysCompare,
        ..cfg
    };
    assert_eq!(best_as_level(&cands, &always), vec![1]);
}

/// Step 4 with both behaviors in one candidate set: two AS1 routes
/// (compared, higher MED eliminated) next to an AS2 route (kept, MED
/// never consulted).
#[test]
fn step4_mixed_equal_and_unequal_neighbor_as() {
    let cands = vec![
        with_med(route(&[1, 7], 1), 10),  // AS1: eliminated by index 1
        with_med(route(&[1, 8], 2), 5),   // AS1: group minimum
        with_med(route(&[2, 9], 3), 100), // AS2: survives despite MED 100
    ];
    assert_eq!(
        best_as_level(&cands, &DecisionConfig::default()),
        vec![1, 2]
    );
}

/// A missing MED ranks as 0 (the vendor default), so it beats any
/// explicit MED within the same neighbor AS.
#[test]
fn step4_missing_med_ranks_lowest() {
    let cands = vec![
        route(&[1, 7], 1),              // no MED = effective 0
        with_med(route(&[1, 8], 2), 1), // explicit 1: eliminated
    ];
    assert_eq!(best_as_level(&cands, &DecisionConfig::default()), vec![0]);
}

/// The MED group is the *leftmost* AS only: routes whose paths diverge
/// after the first hop are still one group.
#[test]
fn step4_group_is_leftmost_as_only() {
    let cands = vec![
        with_med(route(&[1, 100, 200], 1), 3),
        with_med(route(&[1, 300, 400], 2), 8),
    ];
    assert_eq!(best_as_level(&cands, &DecisionConfig::default()), vec![0]);
}

/// The full cascade: five candidates each eliminated at a successive
/// step, leaving a singleton AS-level set that best_path must agree
/// with.
#[test]
fn steps_1_to_4_cascade_to_a_singleton() {
    let cands = vec![
        with_lp(route(&[1], 1), 90),                            // out at step 1
        route(&[2, 3], 2),                                      // out at step 2
        with_origin(route(&[4], 3), Origin::Incomplete),        // out at step 3
        with_med(with_origin(route(&[5], 4), Origin::Igp), 20), // out at step 4
        with_med(with_origin(route(&[5], 5), Origin::Igp), 10), // survivor
    ];
    let cfg = DecisionConfig::default();
    assert_eq!(best_as_level(&cands, &cfg), vec![4]);
    assert_eq!(best_path(&cands, &cfg, &flat_igp), Some(4));
}

/// Survivor sets are computed over indices in input order, so an ARR
/// and a client iterating the same Adj-RIB-In agree on the set without
/// any canonicalization — the property the paper's AS-level argument
/// rests on.
#[test]
fn survivor_sets_preserve_input_order() {
    let cands = vec![
        with_med(route(&[1, 9], 5), 5),
        with_med(route(&[2, 9], 4), 7),
        with_med(route(&[1, 8], 3), 5),
    ];
    let surv = best_as_level(&cands, &DecisionConfig::default());
    assert_eq!(surv, vec![0, 1, 2]);
    assert!(surv.windows(2).all(|w| w[0] < w[1]));
}
