//! Property tests for the decision process: invariants that must hold
//! for every candidate set.

use bgp_rib::{best_as_level, best_path, Candidate, DecisionConfig, MedMode};
use bgp_types::{
    AsPath, Asn, LocalPref, Med, NextHop, Origin, PathAttributes, RouteSource, RouterId,
};
use proptest::prelude::*;
use std::sync::Arc;

fn arb_candidate(index: u32) -> impl Strategy<Value = Candidate> {
    (
        0u8..3,                                                        // origin
        prop::collection::vec(1u32..6, 0..4), // as path (small AS space => ties)
        1u32..6,                              // next hop (small => IGP ties)
        prop::option::of(0u32..4),            // med
        prop::option::of(prop::sample::select(vec![90u32, 100, 110])), // local pref
        0u8..2,                               // source kind
    )
        .prop_map(move |(origin, asns, nh, med, lp, kind)| {
            // Session addresses are unique in reality; derive the id
            // from the candidate's position so ties can always be
            // broken by step 8 deterministically.
            let nid = 100 + index;
            let mut attrs =
                PathAttributes::ebgp(AsPath::sequence(asns.into_iter().map(Asn)), NextHop(nh));
            attrs.origin = Origin::from_code(origin).unwrap();
            attrs.med = med.map(Med);
            attrs.local_pref = lp.map(LocalPref);
            let source = match kind {
                0 => RouteSource::Ebgp {
                    peer_as: Asn(attrs.as_path.first_as().map(|a| a.0).unwrap_or(1)),
                    peer_addr: nid,
                },
                _ => RouteSource::Ibgp {
                    peer: RouterId(nid),
                },
            };
            Candidate {
                attrs: Arc::new(attrs),
                source,
                neighbor_id: nid,
            }
        })
}

fn arb_candidates(max: usize) -> impl Strategy<Value = Vec<Candidate>> {
    (1..max).prop_flat_map(|n| (0..n as u32).map(arb_candidate).collect::<Vec<_>>())
}

fn igp(nh: NextHop) -> Option<u32> {
    Some(nh.0 % 4) // small metric space => ties exercised
}

proptest! {
    /// best_path returns a valid index, and its winner always survives
    /// the AS-level steps (steps 1-4 run first in both).
    #[test]
    fn best_path_is_subset_of_best_as_level(
        cands in arb_candidates(12)
    ) {
        let cfg = DecisionConfig::default();
        if let Some(i) = best_path(&cands, &cfg, &igp) {
            prop_assert!(i < cands.len());
            let bal = best_as_level(&cands, &cfg);
            prop_assert!(
                bal.contains(&i),
                "winner {i} not in AS-level set {bal:?}"
            );
        }
    }

    /// The winner is invariant under candidate-order permutation
    /// (compared by content, not index).
    #[test]
    fn best_path_order_invariant(
        cands in arb_candidates(10),
        rot in 0usize..10
    ) {
        let cfg = DecisionConfig::default();
        let mut rotated = cands.clone();
        rotated.rotate_left(rot % cands.len().max(1));
        let a = best_path(&cands, &cfg, &igp).map(|i| cands[i].clone());
        let b = best_path(&rotated, &cfg, &igp).map(|i| rotated[i].clone());
        prop_assert_eq!(a, b);
    }

    /// best_as_level is order-invariant as a set.
    #[test]
    fn best_as_level_order_invariant(
        cands in arb_candidates(10),
        rot in 0usize..10
    ) {
        let cfg = DecisionConfig::default();
        let mut rotated = cands.clone();
        rotated.rotate_left(rot % cands.len().max(1));
        let mut a: Vec<Candidate> = best_as_level(&cands, &cfg)
            .into_iter().map(|i| cands[i].clone()).collect();
        let mut b: Vec<Candidate> = best_as_level(&rotated, &cfg)
            .into_iter().map(|i| rotated[i].clone()).collect();
        let key = |c: &Candidate| format!("{:?}{:?}{}", c.attrs, c.source, c.neighbor_id);
        a.sort_by_key(key);
        b.sort_by_key(key);
        prop_assert_eq!(a, b);
    }

    /// Adding a strictly worse candidate never changes the winner.
    #[test]
    fn adding_dominated_candidate_is_noop(
        cands in arb_candidates(8)
    ) {
        let cfg = DecisionConfig::default();
        let Some(i) = best_path(&cands, &cfg, &igp) else { return Ok(()); };
        let winner = cands[i].clone();
        // Build a candidate that loses step 1 outright.
        let mut worse = (*winner.attrs).clone();
        worse.local_pref = Some(LocalPref(1));
        let mut extended = cands.clone();
        extended.push(Candidate {
            attrs: Arc::new(worse),
            source: winner.source,
            neighbor_id: winner.neighbor_id,
        });
        let j = best_path(&extended, &cfg, &igp).unwrap();
        prop_assert_eq!(&extended[j], &winner);
    }

    /// Every AS-level survivor ties the winner on steps 1-3 exactly.
    #[test]
    fn as_level_survivors_tie_on_steps_1_to_3(
        cands in arb_candidates(12)
    ) {
        let cfg = DecisionConfig::default();
        let bal = best_as_level(&cands, &cfg);
        prop_assert!(!bal.is_empty());
        let first = &cands[bal[0]];
        for &i in &bal {
            prop_assert_eq!(
                cands[i].attrs.effective_local_pref(),
                first.attrs.effective_local_pref()
            );
            prop_assert_eq!(
                cands[i].attrs.as_path.path_len(),
                first.attrs.as_path.path_len()
            );
            prop_assert_eq!(cands[i].attrs.origin, first.attrs.origin);
        }
    }

    /// Within one MED group, all AS-level survivors share the group's
    /// minimum MED.
    #[test]
    fn med_minimum_within_group(
        cands in arb_candidates(12)
    ) {
        let cfg = DecisionConfig::default();
        let bal = best_as_level(&cands, &cfg);
        for &i in &bal {
            if let Some(g) = cands[i].med_group() {
                for &j in &bal {
                    if cands[j].med_group() == Some(g) {
                        prop_assert_eq!(
                            cands[i].attrs.effective_med(),
                            cands[j].attrs.effective_med()
                        );
                    }
                }
            }
        }
    }

    /// AlwaysCompare MED yields a subset of (or equal survivors to) a
    /// single-group interpretation: all survivors share one global MED.
    #[test]
    fn always_compare_med_global_minimum(
        cands in arb_candidates(12)
    ) {
        let cfg = DecisionConfig { med: MedMode::AlwaysCompare, ..Default::default() };
        let bal = best_as_level(&cands, &cfg);
        let meds: Vec<Med> = bal.iter().map(|&i| cands[i].attrs.effective_med()).collect();
        for w in meds.windows(2) {
            prop_assert_eq!(w[0], w[1]);
        }
    }

    /// With every next hop unreachable, best_path returns None; with
    /// all reachable it returns Some.
    #[test]
    fn reachability_gates_selection(
        cands in arb_candidates(8)
    ) {
        let cfg = DecisionConfig::default();
        let dead = |_: NextHop| -> Option<u32> { None };
        prop_assert_eq!(best_path(&cands, &cfg, &dead), None);
        let alive = |_: NextHop| -> Option<u32> { Some(1) };
        prop_assert!(best_path(&cands, &cfg, &alive).is_some());
    }
}
