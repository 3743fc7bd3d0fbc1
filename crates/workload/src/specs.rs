//! Maps a [`Tier1Model`] onto runnable [`NetworkSpec`]s for each
//! scheme, mirroring the paper's experimental setups (§4): TBRR with
//! one cluster per PoP and 2 TRRs each; ABRR with a configurable number
//! of APs, each served by 2 ARRs placed wherever we like.

use crate::tier1::Tier1Model;
use abrr::{ClusterSpec, LatencyModel, Mode, NetworkSpec};
use bgp_types::{ApMap, Asn, RouterId};
use igp::Topology;
use netsim::Time;
use std::collections::BTreeMap;

/// Base id for synthetic control-plane TRRs.
pub const TRR_BASE_ID: u32 = 100_000;
/// Base id for synthetic control-plane ARRs.
pub const ARR_BASE_ID: u32 = 200_000;

/// Base update-processing (work-queue) delay for border routers, µs.
const PROC_DELAY_BASE_US: Time = 20_000;
/// Per-node processing-delay spread for border routers, µs.
const PROC_DELAY_SPREAD_US: Time = 50_000;
/// Base processing delay for RRs, µs.
const RR_PROC_DELAY_BASE_US: Time = 100_000;

/// Common knobs for both schemes.
#[derive(Clone, Debug)]
pub struct SpecOptions {
    /// MRAI in µs (paper default 5 s for iBGP).
    pub mrai_us: Time,
    /// Count wire bytes on every transmission.
    pub account_bytes: bool,
    /// Balance APs by prefix count instead of uniform ranges
    /// (the §4.1 variance remedy).
    pub balanced_aps: bool,
    /// Per-node processing-delay spread for RRs, µs — models the
    /// unequal TRR processing times behind the paper's §4.2 races
    /// ("100's of ms to several seconds").
    pub rr_proc_delay_spread_us: Time,
}

impl Default for SpecOptions {
    fn default() -> Self {
        SpecOptions {
            mrai_us: 5_000_000,
            account_bytes: false,
            balanced_aps: false,
            rr_proc_delay_spread_us: 1_500_000,
        }
    }
}

/// Clones the model topology and attaches `n` control-plane RRs, RR
/// `i` homed via a cheap link to the PoP chosen by `pop_of(i)`
/// (control-plane devices sit inside a PoP). Returns the extended
/// topology and ids.
///
/// Placement matters enormously for TBRR: cluster `p`'s TRRs must sit
/// in PoP `p`, or the engineered "intra-PoP < inter-PoP" metric rule is
/// violated from the reflectors' vantage point and single-path TBRR
/// develops *persistent oscillations* on MED-diverse prefixes (we
/// observed exactly this with mis-homed TRRs — see EXPERIMENTS.md).
/// ABRR is indifferent to placement (§2.3.3), so its ARRs are scattered
/// round-robin on purpose.
fn attach_rrs(
    model: &Tier1Model,
    base_id: u32,
    n: usize,
    pop_of: impl Fn(usize) -> usize,
) -> (Topology, Vec<RouterId>) {
    let mut topo = model.view.topo.clone();
    let mut ids = Vec::with_capacity(n);
    for i in 0..n {
        let id = RouterId(base_id + i as u32);
        let pop = &model.view.pops[pop_of(i) % model.view.pops.len()];
        topo.add_link(id, pop[0], 1);
        ids.push(id);
    }
    (topo, ids)
}

/// Builds the TBRR spec: one cluster per PoP, `trrs_per_cluster`
/// control-plane TRRs each, clients = the PoP's peering routers.
pub fn tbrr_spec(
    model: &Tier1Model,
    trrs_per_cluster: usize,
    multipath: bool,
    opts: &SpecOptions,
) -> NetworkSpec {
    let n_pops = model.view.pops.len();
    // Cluster p's TRRs live in PoP p (the industry practice the paper
    // describes in §1).
    let (topo, trr_ids) = attach_rrs(model, TRR_BASE_ID, n_pops * trrs_per_cluster, |i| {
        i / trrs_per_cluster
    });
    let clusters: Vec<ClusterSpec> = (0..n_pops)
        .map(|p| ClusterSpec {
            id: (p + 1) as u32,
            trrs: (0..trrs_per_cluster)
                .map(|k| trr_ids[p * trrs_per_cluster + k])
                .collect(),
            clients: model.view.pops[p].clone(),
        })
        .collect();
    let mut spec = reflection_spec(model, &topo, Mode::Tbrr { multipath }, opts);
    spec.clusters = clusters;
    spec
}

/// Builds the ABRR spec: `n_aps` partitions, `arrs_per_ap` control-
/// plane ARRs each. ARR placement is deliberately arbitrary —
/// round-robin across PoPs — because ABRR's correctness does not depend
/// on it (§2.3.3).
pub fn abrr_spec(
    model: &Tier1Model,
    n_aps: usize,
    arrs_per_ap: usize,
    opts: &SpecOptions,
) -> NetworkSpec {
    // ARR placement is free (§2.3.3): scatter them round-robin.
    let (topo, arr_ids) = attach_rrs(model, ARR_BASE_ID, n_aps * arrs_per_ap, |i| i);
    let ap_map = if opts.balanced_aps {
        ApMap::balanced(&model.sorted_prefixes(), n_aps)
    } else {
        ApMap::uniform(n_aps)
    };
    let mut arrs = BTreeMap::new();
    for (i, part) in ap_map.partitions().iter().enumerate() {
        arrs.insert(
            part.id,
            (0..arrs_per_ap)
                .map(|k| arr_ids[i * arrs_per_ap + k])
                .collect::<Vec<_>>(),
        );
    }
    let mut spec = reflection_spec(model, &topo, Mode::Abrr, opts);
    spec.ap_map = Some(ap_map);
    spec.arrs = arrs;
    spec
}

/// Builds the full-mesh oracle spec over the model's routers: AS 65000,
/// `opts`' MRAI and byte accounting, IGP-proportional session latency.
/// The four processing-delay fields stay at 0, unlike [`abrr_spec`]
/// and [`tbrr_spec`], which set them to this module's work-queue
/// delays and `opts`' RR spread.
pub fn full_mesh_spec(model: &Tier1Model, opts: &SpecOptions) -> NetworkSpec {
    mesh_over(&model.view.topo, opts)
}

/// [`NetworkSpec::full_mesh`] over `topo` with `opts`' MRAI and byte
/// accounting and IGP-proportional session latency.
fn mesh_over(topo: &Topology, opts: &SpecOptions) -> NetworkSpec {
    let mut spec = NetworkSpec::full_mesh(topo, Asn(65000));
    spec.mrai_us = opts.mrai_us;
    spec.account_bytes = opts.account_bytes;
    spec.latency = LatencyModel::IgpProportional {
        base: 1_000,
        per_metric: 50,
    };
    spec
}

/// The base both reflection schemes share: [`mesh_over`] the
/// RR-extended `topo`, in `mode`, with the model's routers as the data
/// plane, this module's work-queue delays and `opts`' RR spread.
fn reflection_spec(
    model: &Tier1Model,
    topo: &Topology,
    mode: Mode,
    opts: &SpecOptions,
) -> NetworkSpec {
    let mut spec = mesh_over(topo, opts);
    spec.mode = mode;
    spec.routers = model.routers.clone();
    spec.proc_delay_base_us = PROC_DELAY_BASE_US;
    spec.proc_delay_spread_us = PROC_DELAY_SPREAD_US;
    spec.rr_proc_delay_base_us = RR_PROC_DELAY_BASE_US;
    spec.rr_proc_delay_spread_us = opts.rr_proc_delay_spread_us;
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tier1::Tier1Config;
    use std::sync::Arc;

    fn model() -> Tier1Model {
        Tier1Model::generate(Tier1Config {
            n_prefixes: 200,
            n_pops: 4,
            routers_per_pop: 3,
            ..Tier1Config::default()
        })
    }

    #[test]
    fn tbrr_spec_validates() {
        let m = model();
        let spec = tbrr_spec(&m, 2, false, &SpecOptions::default());
        assert!(spec.validate().is_empty(), "{:?}", spec.validate());
        assert_eq!(spec.clusters.len(), 4);
        assert_eq!(spec.all_trrs().len(), 8);
        // TRRs are reachable in the IGP.
        for trr in spec.all_trrs() {
            assert!(spec.oracle.distance(m.routers[0], trr).is_some());
        }
    }

    #[test]
    fn abrr_spec_validates_uniform_and_balanced() {
        let m = model();
        for balanced in [false, true] {
            let spec = abrr_spec(
                &m,
                8,
                2,
                &SpecOptions {
                    balanced_aps: balanced,
                    ..Default::default()
                },
            );
            assert!(spec.validate().is_empty(), "{:?}", spec.validate());
            assert_eq!(spec.all_arrs().len(), 16);
            for part in spec.ap_map.as_ref().unwrap().partitions() {
                assert_eq!(spec.arrs_of(part.id).len(), 2);
            }
        }
    }

    #[test]
    fn balanced_aps_even_out_prefix_counts() {
        let m = model();
        let uniform = abrr_spec(&m, 8, 1, &SpecOptions::default());
        let balanced = abrr_spec(
            &m,
            8,
            1,
            &SpecOptions {
                balanced_aps: true,
                ..Default::default()
            },
        );
        let spread = |spec: &NetworkSpec| {
            let map = spec.ap_map.as_ref().unwrap();
            let mut counts = vec![0usize; map.len()];
            for p in &m.prefixes {
                for ap in map.aps_for_prefix(&p.prefix) {
                    counts[ap.0 as usize] += 1;
                }
            }
            let max = *counts.iter().max().unwrap() as f64;
            let min = *counts.iter().min().unwrap() as f64;
            (max - min) / (max + 1.0)
        };
        assert!(
            spread(&balanced) < spread(&uniform),
            "balancing must reduce the per-AP prefix-count spread"
        );
    }

    #[test]
    fn builds_and_runs_smoke() {
        let m = model();
        let opts = SpecOptions {
            mrai_us: 0,
            ..Default::default()
        };
        let spec = Arc::new(abrr_spec(&m, 4, 2, &opts));
        let mut sim = abrr::build_sim(spec);
        let snap = crate::churn::initial_snapshot(&m);
        crate::regen::replay(&mut sim, &snap, 1);
        let out = sim.run(netsim::RunLimits {
            max_events: 5_000_000,
            max_time: u64::MAX,
        });
        assert!(out.quiesced);
    }
}
