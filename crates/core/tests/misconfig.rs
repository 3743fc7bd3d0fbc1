//! §2.3.2: loop prevention under inconsistent configuration. Three
//! routers each believe *they* are the sole ARR and the others are
//! clients. The single-bit reflected marker must stop reflected updates
//! from being re-reflected.

use abrr::prelude::*;
use abrr::SharedIndex;
use netsim::Sim;
use std::sync::Arc;

fn pfx(s: &str) -> Ipv4Prefix {
    s.parse().unwrap()
}

/// Builds the 3-router mutual-misbelief network: each node gets its own
/// spec claiming itself as the only ARR.
fn misconfigured_trio_with(prevention: AbrrLoopPrevention) -> Sim<BgpNode> {
    let mut topo = igp::Topology::new();
    let (a, b, c) = (RouterId(1), RouterId(2), RouterId(3));
    topo.add_link(a, b, 1);
    topo.add_link(b, c, 1);
    topo.add_link(a, c, 1);
    let mut sim: Sim<BgpNode> = Sim::new();
    let index = SharedIndex::new();
    for me in [a, b, c] {
        let mut spec = NetworkSpec::full_mesh(&topo, Asn(65000));
        spec.mode = Mode::Abrr;
        spec.ap_map = Some(ApMap::uniform(1));
        spec.arrs.insert(ApId(0), vec![me]); // "I am the ARR"
        spec.abrr_loop_prevention = prevention;
        sim.add_node(me, BgpNode::new(me, Arc::new(spec), index.clone()));
    }
    sim.add_session(a, b, 1_000);
    sim.add_session(b, c, 1_000);
    sim.add_session(a, c, 1_000);
    sim
}

#[test]
fn reflected_marker_stops_re_reflection() {
    let mut sim = misconfigured_trio_with(AbrrLoopPrevention::ReflectedBit);
    let p = pfx("10.0.0.0/8");
    sim.schedule_external(
        0,
        RouterId(1),
        ExternalEvent::EbgpAnnounce {
            prefix: p,
            peer_as: Asn(7018),
            peer_addr: 9001,
            attrs: Arc::new(PathAttributes::ebgp(
                AsPath::sequence([Asn(7018)]),
                NextHop(9001),
            )),
        },
    );
    let out = sim.run(RunLimits {
        max_events: 100_000,
        max_time: u64::MAX,
    });
    assert!(out.quiesced, "must not loop");
    // Node 1 reflected to 2 and 3 (believing them clients); both tried
    // to re-reflect and were stopped by the marker.
    let prevented: u64 = [2u32, 3]
        .iter()
        .map(|r| sim.node(RouterId(*r)).counters().loop_prevented)
        .sum();
    assert!(
        prevented >= 2,
        "both receivers must have refused to re-reflect (got {prevented})"
    );
    // Under full mutual misbelief the receivers treat node 1's update
    // as a *client* advertisement carrying the reflected marker — and
    // refuse it. The route is (safely) not installed; no update ever
    // circulates twice. Fail-safe beats fail-looping.
    for r in [2u32, 3] {
        assert!(sim.node(RouterId(r)).selected(&p).is_none());
        assert_eq!(sim.node(RouterId(r)).counters().transmitted, 0);
    }
}

#[test]
fn published_update_metrics_equal_update_counters() {
    // The obs registry must report what the always-on `UpdateCounters`
    // hold — including the counts only a misconfiguration produces.
    obs::metrics::reset();
    obs::metrics::set_enabled(true);
    let mut sim = misconfigured_trio_with(AbrrLoopPrevention::ReflectedBit);
    sim.schedule_external(
        0,
        RouterId(1),
        ExternalEvent::EbgpAnnounce {
            prefix: pfx("10.0.0.0/8"),
            peer_as: Asn(7018),
            peer_addr: 9001,
            attrs: Arc::new(PathAttributes::ebgp(
                AsPath::sequence([Asn(7018)]),
                NextHop(9001),
            )),
        },
    );
    assert!(sim.run_to_quiescence().quiesced);
    let mut want = UpdateCounters::default();
    for (_, node) in sim.nodes() {
        node.record_obs_gauges();
        want.merge(node.counters());
    }
    let snap = obs::metrics::snapshot();
    obs::metrics::set_enabled(false);
    assert!(want.loop_prevented > 0 && want.generated > 0);
    for (name, want) in [
        ("core.updates.received", want.received),
        ("core.updates.generated", want.generated),
        ("core.updates.transmitted", want.transmitted),
        ("core.updates.bytes_transmitted", want.bytes_transmitted),
        ("core.updates.loop_prevented", want.loop_prevented),
        ("core.ebgp.events", want.ebgp_events),
        ("core.ebgp.exported", want.ebgp_exported),
    ] {
        let published: u64 = snap
            .iter()
            .filter(|((n, _), _)| n == name)
            .map(|(_, v)| match v {
                obs::MetricValue::Counter(v) | obs::MetricValue::Gauge(v) => *v,
                obs::MetricValue::Histogram { .. } => panic!("{name} is a histogram"),
            })
            .sum();
        assert_eq!(published, want, "{name}");
    }
}

#[test]
fn without_marker_more_messages_flow_but_replace_set_converges() {
    // The ablation: without the marker a single update *is* re-reflected
    // (the paper notes a single looping update dies as "old news"; the
    // danger is multiple updates chasing each other). Replace-set
    // semantics deduplicate, so this small case still converges — but
    // strictly more messages flow than with the marker.
    let run = |prevention: AbrrLoopPrevention| {
        let mut sim = misconfigured_trio_with(prevention);
        let p = pfx("10.0.0.0/8");
        sim.schedule_external(
            0,
            RouterId(1),
            ExternalEvent::EbgpAnnounce {
                prefix: p,
                peer_as: Asn(7018),
                peer_addr: 9001,
                attrs: Arc::new(PathAttributes::ebgp(
                    AsPath::sequence([Asn(7018)]),
                    NextHop(9001),
                )),
            },
        );
        let out = sim.run(RunLimits {
            max_events: 100_000,
            max_time: u64::MAX,
        });
        assert!(out.quiesced);
        let total: u64 = [1u32, 2, 3]
            .iter()
            .map(|r| sim.node(RouterId(*r)).counters().transmitted)
            .sum();
        total
    };
    let with_marker = run(AbrrLoopPrevention::ReflectedBit);
    let with_cluster_list = run(AbrrLoopPrevention::ClusterList);
    let without = run(AbrrLoopPrevention::None);
    assert!(
        without > with_marker,
        "marker must cut message count: {without} !> {with_marker}"
    );
    // The cluster list also prevents indefinite looping, but lets the
    // update circulate further than the marker (paper: it is overkill —
    // and, as shown here, also weaker at containment).
    assert!(
        with_cluster_list >= with_marker,
        "cluster list cannot beat the single-bit marker: {with_cluster_list} < {with_marker}"
    );
}

#[test]
fn cluster_list_prevention_converges_and_fires() {
    // With CLUSTER_LIST prevention, the mistaken reflection chain
    // circulates until an update returns to a stamping ARR, which then
    // recognizes its own id.
    let mut sim = misconfigured_trio_with(AbrrLoopPrevention::ClusterList);
    let p = pfx("10.0.0.0/8");
    sim.schedule_external(
        0,
        RouterId(1),
        ExternalEvent::EbgpAnnounce {
            prefix: p,
            peer_as: Asn(7018),
            peer_addr: 9001,
            attrs: Arc::new(PathAttributes::ebgp(
                AsPath::sequence([Asn(7018)]),
                NextHop(9001),
            )),
        },
    );
    let out = sim.run(RunLimits {
        max_events: 100_000,
        max_time: u64::MAX,
    });
    assert!(
        out.quiesced,
        "cluster-list prevention must not loop forever"
    );
    // The list is being stamped: node 3 received node 1's route via the
    // mistaken reflection at node 2, carrying node 2's cluster id.
    let via_2 = sim.node(RouterId(3)).arr_paths_from(RouterId(2), &p);
    assert_eq!(via_2.len(), 1);
    assert!(
        via_2[0].2.cluster_list().iter().any(|c| c.0 == 2),
        "reflected route must carry the reflector's cluster id: {:?}",
        via_2[0].2.cluster_list()
    );
    // In this gadget the replace-set path-id deduplication contains the
    // chain before any stamper sees its own id again — the prevention
    // check exists for the configurations where it does come back.
}

#[test]
fn correctly_configured_redundant_arrs_need_no_coordination() {
    // Paper §1: "Robustness is achieved by simply deploying multiple
    // ARRs for each address range: no coordination between redundant
    // ARRs is required." Two ARRs for one AP; after convergence both
    // hold identical managed RIBs, and clients store one best per ARR.
    let view = igp::PopTopologyBuilder::new(2, 2).build();
    let mut spec = NetworkSpec::full_mesh(&view.topo, Asn(65000));
    spec.mode = Mode::Abrr;
    spec.ap_map = Some(ApMap::uniform(1));
    spec.arrs.insert(ApId(0), vec![RouterId(1), RouterId(3)]);
    let spec = Arc::new(spec);
    let mut sim = build_sim(spec.clone());
    let p = pfx("10.0.0.0/8");
    sim.schedule_external(
        0,
        RouterId(2),
        ExternalEvent::EbgpAnnounce {
            prefix: p,
            peer_as: Asn(7018),
            peer_addr: 9001,
            attrs: Arc::new(PathAttributes::ebgp(
                AsPath::sequence([Asn(7018)]),
                NextHop(9001),
            )),
        },
    );
    assert!(sim.run_to_quiescence().quiesced);
    // Both ARRs hold the same managed set.
    assert_eq!(sim.node(RouterId(1)).arr_in_entries(), 1);
    assert_eq!(sim.node(RouterId(3)).arr_in_entries(), 1);
    assert_eq!(
        sim.node(RouterId(1)).arr_paths_from(RouterId(2), &p),
        sim.node(RouterId(3)).arr_paths_from(RouterId(2), &p)
    );
    // A plain client keeps one best per redundant ARR (Appendix A:
    // the #ARRs/#APs redundancy factor).
    let client = RouterId(4);
    assert_eq!(sim.node(client).client_paths_from(RouterId(1), &p).len(), 1);
    assert_eq!(sim.node(client).client_paths_from(RouterId(3), &p).len(), 1);
    assert_eq!(sim.node(client).client_in_entries(), 2);
}

#[test]
fn arr_failure_leaves_service_via_redundant_arr() {
    // Kill one ARR's sessions mid-run: routes keep flowing through the
    // other ARR; reconvergence drops the dead ARR's contributions.
    let view = igp::PopTopologyBuilder::new(2, 2).build();
    let mut spec = NetworkSpec::full_mesh(&view.topo, Asn(65000));
    spec.mode = Mode::Abrr;
    spec.ap_map = Some(ApMap::uniform(1));
    spec.arrs.insert(ApId(0), vec![RouterId(1), RouterId(3)]);
    let spec = Arc::new(spec);
    let mut sim = build_sim(spec.clone());
    let p = pfx("10.0.0.0/8");
    sim.schedule_external(
        0,
        RouterId(2),
        ExternalEvent::EbgpAnnounce {
            prefix: p,
            peer_as: Asn(7018),
            peer_addr: 9001,
            attrs: Arc::new(PathAttributes::ebgp(
                AsPath::sequence([Asn(7018)]),
                NextHop(9001),
            )),
        },
    );
    assert!(sim.run_to_quiescence().quiesced);
    // Sever ARR 1 from everyone.
    for r in [2u32, 3, 4] {
        sim.remove_session(RouterId(1), RouterId(r));
    }
    // A new exit appears at router 4; it can only travel via ARR 3.
    sim.schedule_external(
        sim.now() + 1,
        RouterId(4),
        ExternalEvent::EbgpAnnounce {
            prefix: p,
            peer_as: Asn(7018),
            peer_addr: 9002,
            attrs: Arc::new(PathAttributes::ebgp(
                AsPath::sequence([Asn(7018)]),
                NextHop(9002),
            )),
        },
    );
    assert!(sim.run_to_quiescence().quiesced);
    // Router 2 learned the new exit from ARR 3 (its best AS-level set
    // now has two routes; its own stays preferred as eBGP, but the set
    // from ARR 3 contains router 4's route).
    let from_arr3 = sim.node(RouterId(2)).client_paths_from(RouterId(3), &p);
    assert_eq!(from_arr3.len(), 1, "reduced best from the surviving ARR");
}
