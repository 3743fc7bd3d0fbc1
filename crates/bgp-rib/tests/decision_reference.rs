//! The decision process as it was written before the key-array
//! elimination (one `Vec<usize>` of survivors filtered step by step, an
//! ordered map for the MED groups, the IGP asked at every step), kept
//! verbatim as the oracle, and a differential test that holds
//! `bgp_rib::best_path` / `best_as_level` to it: same winner, same
//! survivor list, on sets that cross the 8- and 32-key stack buffers.
//! The borrowed-route entry points (`best_path_of` / `best_as_level_of`)
//! must answer exactly as the `&[Candidate]` ones, fed from a slice and
//! from a sequence that knows only an upper bound on its length.

use bgp_rib::{Candidate, DecisionConfig, IgpMetric, MedMode, RouteRef};
use bgp_types::{
    AsPath, Asn, ClusterId, LocalPref, Med, NextHop, Origin, OriginatorId, PathAttributes,
    RouteSource, RouterId,
};
use proptest::prelude::*;
use std::sync::Arc;

/// The pre-PR-23 implementation, step by step.
mod reference {
    use super::*;

    /// Applies decision steps 1–3 (highest LOCAL_PREF, shortest AS_PATH,
    /// lowest ORIGIN), returning surviving indices into `cands`.
    fn as_level_steps_1_to_3(cands: &[Candidate], survivors: &mut Vec<usize>) {
        // Step 1: highest local pref.
        let best_lp = survivors
            .iter()
            .map(|&i| cands[i].attrs.effective_local_pref())
            .max()
            .expect("non-empty");
        survivors.retain(|&i| cands[i].attrs.effective_local_pref() == best_lp);
        // Step 2: shortest AS path.
        let best_len = survivors
            .iter()
            .map(|&i| cands[i].attrs.as_path.path_len())
            .min()
            .expect("non-empty");
        survivors.retain(|&i| cands[i].attrs.as_path.path_len() == best_len);
        // Step 3: lowest origin.
        let best_origin = survivors
            .iter()
            .map(|&i| cands[i].attrs.origin)
            .min()
            .expect("non-empty");
        survivors.retain(|&i| cands[i].attrs.origin == best_origin);
    }

    /// Applies step 4 (lowest MED) with the configured comparison scope:
    /// within each MED group, only routes tying for the group's lowest MED
    /// survive.
    fn med_step(cands: &[Candidate], survivors: &mut Vec<usize>, mode: MedMode) {
        match mode {
            MedMode::AlwaysCompare => {
                let best = survivors
                    .iter()
                    .map(|&i| cands[i].attrs.effective_med())
                    .min()
                    .expect("non-empty");
                survivors.retain(|&i| cands[i].attrs.effective_med() == best);
            }
            MedMode::SameNeighborAs => {
                // Deterministic-MED style: within each neighbour-AS group
                // only the group's minimum MED survives. One pass to find
                // the minima, one pass to filter (local routes, which have
                // no group, are never MED-eliminated).
                let mut min_by_group: std::collections::BTreeMap<Asn, Med> =
                    std::collections::BTreeMap::new();
                for &i in survivors.iter() {
                    if let Some(g) = cands[i].med_group() {
                        let med = cands[i].attrs.effective_med();
                        min_by_group
                            .entry(g)
                            .and_modify(|m| {
                                if med < *m {
                                    *m = med;
                                }
                            })
                            .or_insert(med);
                    }
                }
                survivors.retain(|&i| match cands[i].med_group() {
                    None => true,
                    Some(g) => cands[i].attrs.effective_med() == min_by_group[&g],
                });
            }
        }
    }

    /// Computes the *best AS-level routes*: the survivors of decision steps
    /// 1–4 (paper §2.1, Table 2). Returns indices into `cands`, in input
    /// order. This is the route set an ARR advertises to every client.
    pub fn best_as_level(cands: &[Candidate], cfg: &DecisionConfig) -> Vec<usize> {
        if cands.is_empty() {
            return Vec::new();
        }
        let mut survivors: Vec<usize> = (0..cands.len()).collect();
        as_level_steps_1_to_3(cands, &mut survivors);
        med_step(cands, &mut survivors, cfg.med);
        survivors
    }

    /// Runs the full decision process (steps 1–8) and returns the index of
    /// the best candidate, or `None` when no candidate has a reachable next
    /// hop.
    ///
    /// Step order (paper Table 2):
    /// 1. highest LOCAL_PREF, 2. shortest AS_PATH, 3. lowest ORIGIN,
    ///    4. lowest MED, 5. eBGP over iBGP, 6. lowest IGP metric to next
    ///    hop, (6.5 RFC 4456: shorter CLUSTER_LIST, if configured),
    ///    7. lowest router id (ORIGINATOR_ID substitutes), 8. lowest peer
    ///    address.
    pub fn best_path(
        cands: &[Candidate],
        cfg: &DecisionConfig,
        igp: &impl IgpMetric,
    ) -> Option<usize> {
        // Reachability filter precedes everything (RFC 4271 §9.1.2).
        let mut survivors: Vec<usize> = (0..cands.len())
            .filter(|&i| igp.metric(cands[i].attrs.next_hop).is_some())
            .collect();
        if survivors.is_empty() {
            return None;
        }
        as_level_steps_1_to_3(cands, &mut survivors);
        med_step(cands, &mut survivors, cfg.med);
        // Step 5: eBGP-learned over iBGP-learned.
        let ebgp = |&i: &usize| matches!(cands[i].source, RouteSource::Ebgp { .. });
        if survivors.iter().any(ebgp) {
            survivors.retain(ebgp);
        }
        // Step 6: lowest IGP metric to next hop.
        let best_metric = survivors
            .iter()
            .map(|&i| igp.metric(cands[i].attrs.next_hop).expect("filtered"))
            .min()
            .expect("non-empty");
        survivors.retain(|&i| igp.metric(cands[i].attrs.next_hop) == Some(best_metric));
        // Step 6.5 (RFC 4456 §9): shorter CLUSTER_LIST.
        if cfg.use_cluster_list_len {
            let best_cl = survivors
                .iter()
                .map(|&i| cands[i].attrs.cluster_list.len())
                .min()
                .expect("non-empty");
            survivors.retain(|&i| cands[i].attrs.cluster_list.len() == best_cl);
        }
        // Step 7: lowest router id (ORIGINATOR_ID substitutes).
        let best_id = survivors
            .iter()
            .map(|&i| cands[i].effective_router_id())
            .min()
            .expect("non-empty");
        survivors.retain(|&i| cands[i].effective_router_id() == best_id);
        // Step 8: lowest peer address.
        survivors.into_iter().min_by_key(|&i| cands[i].peer_addr())
    }
}

fn arb_candidate() -> impl Strategy<Value = Candidate> {
    (
        (
            0u8..3,                               // origin
            prop::collection::vec(1u32..4, 0..3), // AS path: few ASes, so MED groups repeat
            0u32..6,                              // next hop: 0 is unreachable, the rest tie
            prop::option::of(0u32..3),            // MED
            prop::option::of(prop::sample::select(vec![100u32, 110])),
        ),
        (
            0u8..2,                    // source kind
            1u32..5,                   // neighbour id: repeats, so step 8 can tie
            prop::option::of(1u32..4), // ORIGINATOR_ID
            0usize..3,                 // CLUSTER_LIST length
        ),
    )
        .prop_map(
            |((origin, asns, nh, med, lp), (kind, nid, originator, clusters))| {
                let mut attrs =
                    PathAttributes::ebgp(AsPath::sequence(asns.into_iter().map(Asn)), NextHop(nh));
                attrs.origin = Origin::from_code(origin).unwrap();
                attrs.med = med.map(Med);
                attrs.local_pref = lp.map(LocalPref);
                attrs.originator_id = originator.map(OriginatorId);
                attrs.cluster_list = (0..clusters as u32).map(ClusterId).collect();
                let source = match kind {
                    0 => RouteSource::Ebgp {
                        peer_as: Asn(attrs.as_path.first_as().map_or(1, |a| a.0)),
                        peer_addr: 10 + nid,
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
            },
        )
}

/// Next hop 0 is unreachable; the others sit at one of two distances.
fn igp(nh: NextHop) -> Option<u32> {
    (nh.0 != 0).then_some(nh.0 % 2)
}

/// The candidates as borrowed routes, field by field.
fn borrowed(cands: &[Candidate]) -> impl Iterator<Item = RouteRef<'_>> + Clone {
    cands.iter().map(|c| RouteRef {
        attrs: &c.attrs,
        source: c.source,
        neighbor_id: c.neighbor_id,
    })
}

/// Asserts the borrowed-route entry points agree with the slice ones,
/// and returns the slice ones' `(survivors, winner)`.
fn decide(
    cands: &[Candidate],
    cfg: &DecisionConfig,
    igp: &impl IgpMetric,
) -> (Vec<usize>, Option<usize>) {
    let survivors = bgp_rib::best_as_level(cands, cfg);
    let winner = bgp_rib::best_path(cands, cfg, igp);
    let routes = borrowed(cands);
    // `filter` keeps the upper size bound and drops the lower one.
    let unsized_routes = || routes.clone().filter(|_| true);
    assert_eq!(bgp_rib::best_as_level_of(routes.clone(), cfg), survivors);
    assert_eq!(bgp_rib::best_as_level_of(unsized_routes(), cfg), survivors);
    assert_eq!(bgp_rib::best_path_of(routes.clone(), cfg, igp), winner);
    assert_eq!(bgp_rib::best_path_of(unsized_routes(), cfg, igp), winner);
    (survivors, winner)
}

fn configs() -> impl Iterator<Item = DecisionConfig> {
    [MedMode::SameNeighborAs, MedMode::AlwaysCompare]
        .into_iter()
        .flat_map(|med| {
            [true, false].map(|use_cluster_list_len| DecisionConfig {
                med,
                use_cluster_list_len,
            })
        })
}

proptest! {
    /// 0..=48 candidates: a third of the cases spill past the inline
    /// capacity, and the small attribute spaces make every step tie.
    #[test]
    fn matches_the_step_by_step_reference(
        cands in (0usize..49).prop_flat_map(|n| prop::collection::vec(arb_candidate(), n..n + 1))
    ) {
        for cfg in configs() {
            let (survivors, winner) = decide(&cands, &cfg, &igp);
            prop_assert_eq!(
                survivors,
                reference::best_as_level(&cands, &cfg),
                "survivors, {:?}", cfg
            );
            prop_assert_eq!(
                winner,
                reference::best_path(&cands, &cfg, &igp),
                "winner, {:?}", cfg
            );
        }
    }
}

/// The sizes either side of both stack buffers, every config, with all next
/// hops reachable so the whole set reaches the elimination.
#[test]
fn capacity_boundary_matches_reference() {
    let mut rng = proptest::TestRng::seed(proptest::seed_of("capacity_boundary"));
    let alive = |_: NextHop| Some(7);
    for n in [7usize, 8, 9, 31, 32, 33, 48] {
        for _ in 0..32 {
            let cands = prop::collection::vec(arb_candidate(), n..n + 1).generate(&mut rng);
            for cfg in configs() {
                let (survivors, winner) = decide(&cands, &cfg, &alive);
                assert_eq!(survivors, reference::best_as_level(&cands, &cfg));
                assert_eq!(winner, reference::best_path(&cands, &cfg, &alive));
            }
        }
    }
}
