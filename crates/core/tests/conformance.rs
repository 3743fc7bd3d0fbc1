//! Protocol-conformance tests: each advertisement rule of paper Table 1
//! exercised against live engines.

use abrr::prelude::*;
use std::sync::Arc;

fn pfx(s: &str) -> Ipv4Prefix {
    s.parse().unwrap()
}

fn feed(prefix: Ipv4Prefix, peer_as: u32, peer_addr: u32) -> ExternalEvent {
    ExternalEvent::EbgpAnnounce {
        prefix,
        peer_as: Asn(peer_as),
        peer_addr,
        attrs: Arc::new(PathAttributes::ebgp(
            AsPath::sequence([Asn(peer_as)]),
            NextHop(peer_addr),
        )),
    }
}

/// A 2-PoP / 2-routers-each ABRR network with routers 1,2 as the ARRs
/// of APs 0,1 respectively.
fn abrr_net() -> (Arc<NetworkSpec>, Sim<BgpNode>) {
    let view = igp::PopTopologyBuilder::new(2, 2).build();
    let mut spec = NetworkSpec::full_mesh(&view.topo, Asn(65000));
    spec.mode = Mode::Abrr;
    spec.ap_map = Some(ApMap::uniform(2));
    spec.arrs.insert(ApId(0), vec![RouterId(1)]);
    spec.arrs.insert(ApId(1), vec![RouterId(2)]);
    let spec = Arc::new(spec);
    let sim = build_sim(spec.clone());
    (spec, sim)
}

/// The MED gadget's TBRR network (`examples/scenarios/med_gadget.json`):
/// TRRs 1 and 2, clusters {TRR 1; clients 3, 4} and {TRR 2; client 5}.
fn med_gadget_tbrr(multipath: bool) -> Sim<BgpNode> {
    let mut topo = igp::Topology::new();
    for (a, b, metric) in [(1, 4, 1), (1, 3, 5), (1, 2, 4), (2, 5, 20)] {
        topo.add_link(RouterId(a), RouterId(b), metric);
    }
    let mut spec = NetworkSpec::full_mesh(&topo, Asn(65000));
    spec.mode = Mode::Tbrr { multipath };
    spec.routers = vec![RouterId(3), RouterId(4), RouterId(5)];
    spec.clusters = vec![
        ClusterSpec {
            id: 1,
            trrs: vec![RouterId(1)],
            clients: vec![RouterId(3), RouterId(4)],
        },
        ClusterSpec {
            id: 2,
            trrs: vec![RouterId(2)],
            clients: vec![RouterId(5)],
        },
    ];
    build_sim(Arc::new(spec))
}

#[test]
fn client_advertises_only_to_covering_ap_arrs() {
    // 10.0.0.0/8 lies in AP0 (first half of the space): only ARR 1 may
    // hold it as a managed route.
    let (_spec, mut sim) = abrr_net();
    let p = pfx("10.0.0.0/8");
    sim.schedule_external(0, RouterId(3), feed(p, 7018, 9001));
    assert!(sim.run_to_quiescence().quiesced);
    assert_eq!(sim.node(RouterId(1)).arr_in_entries(), 1);
    assert_eq!(sim.node(RouterId(2)).arr_in_entries(), 0);
}

#[test]
fn spanning_prefix_goes_to_all_covering_arrs() {
    // 0.0.0.0/0 overlaps both APs: both ARRs manage it (paper §2.1:
    // "If a prefix spans multiple APs, then the associated route is
    // advertised to the ARRs for all such APs").
    let (_spec, mut sim) = abrr_net();
    let p = Ipv4Prefix::DEFAULT;
    sim.schedule_external(0, RouterId(3), feed(p, 7018, 9001));
    assert!(sim.run_to_quiescence().quiesced);
    assert_eq!(sim.node(RouterId(1)).arr_in_entries(), 1);
    assert_eq!(sim.node(RouterId(2)).arr_in_entries(), 1);
}

#[test]
fn arr_does_not_return_route_to_sender() {
    let (_spec, mut sim) = abrr_net();
    let p = pfx("10.0.0.0/8");
    sim.schedule_external(0, RouterId(3), feed(p, 7018, 9001));
    assert!(sim.run_to_quiescence().quiesced);
    // Router 3 originated the only route; the ARR must not have
    // advertised it back.
    assert!(sim
        .node(RouterId(3))
        .client_paths_from(RouterId(1), &p)
        .is_empty());
    // Router 4 must have received it from ARR 1.
    assert_eq!(
        sim.node(RouterId(4))
            .client_paths_from(RouterId(1), &p)
            .len(),
        1
    );
    // And the delivered route carries the reflected marker + originator.
    let (_, _, attrs) = &sim.node(RouterId(4)).client_paths_from(RouterId(1), &p)[0];
    assert!(attrs.is_abrr_reflected());
    assert_eq!(attrs.originator_id.map(|o| o.0), Some(3));
}

#[test]
fn client_never_advertises_ibgp_learned_routes() {
    let (_spec, mut sim) = abrr_net();
    let p = pfx("10.0.0.0/8");
    sim.schedule_external(0, RouterId(3), feed(p, 7018, 9001));
    assert!(sim.run_to_quiescence().quiesced);
    // Router 4 selected the route (iBGP-learned) but generated no
    // advertisement for it.
    assert!(sim.node(RouterId(4)).selected(&p).is_some());
    assert_eq!(sim.node(RouterId(4)).counters().generated, 0);
    // The ARR for AP0 holds exactly one managed route (from router 3),
    // none echoed from other clients.
    assert_eq!(sim.node(RouterId(1)).arr_in_entries(), 1);
}

#[test]
fn withdraw_propagates_and_cleans_state() {
    let (_spec, mut sim) = abrr_net();
    let p = pfx("10.0.0.0/8");
    sim.schedule_external(0, RouterId(3), feed(p, 7018, 9001));
    assert!(sim.run_to_quiescence().quiesced);
    assert!(sim.node(RouterId(4)).selected(&p).is_some());
    sim.schedule_external(
        sim.now() + 1,
        RouterId(3),
        ExternalEvent::EbgpWithdraw {
            prefix: p,
            peer_addr: 9001,
        },
    );
    assert!(sim.run_to_quiescence().quiesced);
    for (_, node) in sim.nodes() {
        assert!(
            node.selected(&p).is_none(),
            "stale route at {:?}",
            node.id()
        );
    }
    assert_eq!(sim.node(RouterId(1)).arr_in_entries(), 0);
    assert_eq!(sim.node(RouterId(1)).rib_out_size(), 0);
}

#[test]
fn arr_advertises_all_best_as_level_routes() {
    // Two exits with equal AS-level attributes: both survive steps 1-4
    // and both must reach every client.
    let (_spec, mut sim) = abrr_net();
    let p = pfx("10.0.0.0/8");
    sim.schedule_external(0, RouterId(3), feed(p, 7018, 9001));
    sim.schedule_external(0, RouterId(4), feed(p, 7018, 9002));
    assert!(sim.run_to_quiescence().quiesced);
    // ARR 1 manages both.
    assert_eq!(sim.node(RouterId(1)).arr_in_entries(), 2);
    // A third client stores its *reduced* best (paper §3.4): exactly one.
    assert_eq!(
        sim.node(RouterId(2))
            .client_paths_from(RouterId(1), &p)
            .len(),
        1
    );
    // Hot potato: router 3 and 4 are in PoP 0 (with ARR 1); they keep
    // their own exits. Routers in PoP 1 pick their IGP-nearest exit.
    assert_eq!(
        sim.node(RouterId(3)).selected(&p).unwrap().exit_router(),
        RouterId(3)
    );
    assert_eq!(
        sim.node(RouterId(4)).selected(&p).unwrap().exit_router(),
        RouterId(4)
    );
}

#[test]
fn worse_as_level_route_is_not_reflected() {
    // A longer AS path loses steps 1-4 and must not appear in the
    // ARR's advertised set.
    let (_spec, mut sim) = abrr_net();
    let p = pfx("10.0.0.0/8");
    sim.schedule_external(0, RouterId(3), feed(p, 7018, 9001));
    sim.schedule_external(
        0,
        RouterId(4),
        ExternalEvent::EbgpAnnounce {
            prefix: p,
            peer_as: Asn(3356),
            peer_addr: 9002,
            attrs: Arc::new(PathAttributes::ebgp(
                AsPath::sequence([Asn(3356), Asn(1299), Asn(7018)]),
                NextHop(9002),
            )),
        },
    );
    assert!(sim.run_to_quiescence().quiesced);
    // Client 2 (= ARR of AP1, client of AP0) sees only the short route.
    let paths = sim.node(RouterId(2)).client_paths_from(RouterId(1), &p);
    assert_eq!(paths.len(), 1);
    assert_eq!(paths[0].2.as_path().path_len(), 1);
    // Router 4's own eBGP route loses step 2 (longer AS path) before
    // the eBGP-over-iBGP step is ever reached: it exits via router 3.
    assert_eq!(
        sim.node(RouterId(4)).selected(&p).unwrap().exit_router(),
        RouterId(3)
    );
}

#[test]
fn tbrr_single_path_reflection_rules() {
    // Scenario: cluster 1 = {TRR 1; clients 3,4}, cluster 2 = {TRR 2;
    // client 5}. Router 3 announces. TRR1 must reflect to 4 (not back
    // to 3) and to TRR2; TRR2 reflects to 5 but NOT back to TRR1.
    let mut sim = med_gadget_tbrr(false);
    let p = pfx("10.0.0.0/8");
    sim.schedule_external(0, RouterId(3), feed(p, 7018, 9001));
    assert!(sim.run_to_quiescence().quiesced);
    for r in [2u32, 4, 5] {
        let sel = sim.node(RouterId(r)).selected(&p).expect("route");
        assert_eq!(sel.exit_router(), RouterId(3), "router {r}");
    }
    // Cluster list stamped by the reflectors: client 5's copy passed
    // through TRR1 then TRR2.
    let paths = sim.node(RouterId(5)).client_paths_from(RouterId(2), &p);
    assert_eq!(paths.len(), 1);
    let attrs = &paths[0].2;
    assert_eq!(attrs.originator_id.map(|o| o.0), Some(3));
    assert_eq!(
        attrs.cluster_list().iter().map(|c| c.0).collect::<Vec<_>>(),
        vec![2, 1],
        "TRR2's cluster id prepended after TRR1's"
    );
    // Nothing bounced back to the originator.
    assert!(sim
        .node(RouterId(3))
        .client_paths_from(RouterId(1), &p)
        .is_empty());
}

#[test]
fn tbrr_multipath_advertises_set_to_clients() {
    let mut sim = med_gadget_tbrr(true);
    let p = pfx("10.0.0.0/8");
    // Equal AS-level routes at 3 and 5 (different clusters).
    sim.schedule_external(0, RouterId(3), feed(p, 7018, 9001));
    sim.schedule_external(0, RouterId(5), feed(p, 7018, 9002));
    let out = sim.run_to_quiescence();
    assert!(out.quiesced, "multi-path TBRR should converge here");
    // Client 4 received the reduced best from TRR1 out of a 2-route set;
    // TRR1's RIB-Out to clients holds both.
    assert!(sim.node(RouterId(1)).rib_out_size() >= 2);
    assert_eq!(
        sim.node(RouterId(4))
            .client_paths_from(RouterId(1), &p)
            .len(),
        1
    );
}

#[test]
fn tbrr_client_in_two_clusters_receives_twice() {
    // The §4.2 footnote: clients in two clusters receive updates from
    // both clusters' TRRs.
    let view = igp::PopTopologyBuilder::new(2, 3).build();
    let routers = view.routers();
    let (t1, t2) = (routers[0], routers[3]);
    let shared = routers[1]; // client of both clusters
    let c2 = routers[4];
    let other = routers[2];
    let mut spec = NetworkSpec::full_mesh(&view.topo, Asn(65000));
    spec.mode = Mode::Tbrr { multipath: false };
    spec.routers = vec![shared, c2, other];
    spec.clusters = vec![
        ClusterSpec {
            id: 1,
            trrs: vec![t1],
            clients: vec![shared, other],
        },
        ClusterSpec {
            id: 2,
            trrs: vec![t2],
            clients: vec![shared, c2],
        },
    ];
    let spec = Arc::new(spec);
    let mut sim = build_sim(spec.clone());
    let p = pfx("10.0.0.0/8");
    sim.schedule_external(0, c2, feed(p, 7018, 9001));
    assert!(sim.run_to_quiescence().quiesced);
    // The shared client holds the route from both TRRs.
    let from_t1 = sim.node(shared).client_paths_from(t1, &p).len();
    let from_t2 = sim.node(shared).client_paths_from(t2, &p).len();
    assert_eq!((from_t1, from_t2), (1, 1));
    // And received at least two updates; the single-cluster client got
    // fewer.
    assert!(sim.node(shared).counters().received > sim.node(other).counters().received);
}

#[test]
fn tbrr_single_path_causes_path_inefficiency_abrr_does_not() {
    // Two equal AS-level exits in different PoPs. Under single-path
    // TBRR with a distant RR, some clients are forced through the RR's
    // choice; under ABRR every client exits at its IGP-nearest border
    // (paper §2.3.3).
    let view = igp::PopTopologyBuilder::new(2, 3).build();
    let routers = view.routers();
    // PoP0: 1,2,3; PoP1: 4,5,6. Exits at 2 (PoP0) and 5 (PoP1).
    let p = pfx("10.0.0.0/8");
    let feeds = vec![
        (routers[1], feed(p, 7018, 9001)),
        (routers[4], feed(p, 7018, 9002)),
    ];
    // TBRR: single cluster, RR = router 1 (in PoP0!), all others clients.
    let mut tbrr = NetworkSpec::full_mesh(&view.topo, Asn(65000));
    tbrr.mode = Mode::Tbrr { multipath: false };
    tbrr.routers = routers.clone();
    tbrr.clusters = vec![ClusterSpec {
        id: 1,
        trrs: vec![routers[0]],
        clients: routers[1..].to_vec(),
    }];
    let tbrr = Arc::new(tbrr);
    let mut tbrr_sim = build_sim(tbrr.clone());
    for (r, ev) in &feeds {
        tbrr_sim.schedule_external(0, *r, ev.clone());
    }
    assert!(tbrr_sim.run_to_quiescence().quiesced);
    // The PoP1 non-exit client is steered to PoP0's exit by the RR.
    let victim = routers[5];
    let tbrr_exit = tbrr_sim.node(victim).selected(&p).unwrap().exit_router();
    assert_eq!(
        tbrr_exit, routers[1],
        "RR's hot-potato choice wins under TBRR"
    );

    // ABRR: ARRs anywhere (even both in PoP0 — placement freedom).
    let mut ab = NetworkSpec::full_mesh(&view.topo, Asn(65000));
    ab.mode = Mode::Abrr;
    ab.ap_map = Some(ApMap::uniform(1));
    ab.arrs.insert(ApId(0), vec![routers[0]]);
    let ab = Arc::new(ab);
    let mut ab_sim = build_sim(ab.clone());
    for (r, ev) in &feeds {
        ab_sim.schedule_external(0, *r, ev.clone());
    }
    assert!(ab_sim.run_to_quiescence().quiesced);
    let ab_exit = ab_sim.node(victim).selected(&p).unwrap().exit_router();
    assert_eq!(ab_exit, routers[4], "ABRR exits at the IGP-nearest border");
}

#[test]
fn full_mesh_counters_and_sessions() {
    let view = igp::PopTopologyBuilder::new(2, 2).build();
    let spec = Arc::new(NetworkSpec::full_mesh(&view.topo, Asn(65000)));
    let mut sim = build_sim(spec.clone());
    let p = pfx("10.0.0.0/8");
    sim.schedule_external(0, RouterId(1), feed(p, 7018, 9001));
    assert!(sim.run_to_quiescence().quiesced);
    // One generation, three transmissions (one per peer).
    assert_eq!(sim.node(RouterId(1)).counters().generated, 1);
    assert_eq!(sim.node(RouterId(1)).counters().transmitted, 3);
    for r in [2u32, 3, 4] {
        assert_eq!(sim.stats(RouterId(r)).received, 1);
    }
}

#[test]
fn ebgp_ingress_scrubs_internal_attributes() {
    // A malicious/buggy eBGP feed carrying iBGP-internal attributes
    // must be scrubbed at the border.
    let (_spec, mut sim) = abrr_net();
    let p = pfx("10.0.0.0/8");
    let mut attrs = PathAttributes::ebgp(AsPath::sequence([Asn(7018)]), NextHop(9001));
    attrs.originator_id = Some(bgp_types::OriginatorId(99));
    let attrs = attrs.with_lists(
        attrs.as_path(),
        [],
        [bgp_types::ExtCommunity::ABRR_REFLECTED],
        [bgp_types::ClusterId(7)],
    );
    sim.schedule_external(
        0,
        RouterId(3),
        ExternalEvent::EbgpAnnounce {
            prefix: p,
            peer_as: Asn(7018),
            peer_addr: 9001,
            attrs: Arc::new(attrs),
        },
    );
    assert!(sim.run_to_quiescence().quiesced);
    // The route still propagated (the marker would have been dropped at
    // the ARR otherwise).
    assert!(sim.node(RouterId(4)).selected(&p).is_some());
    let sel = sim.node(RouterId(3)).selected(&p).unwrap();
    assert!(sel.attrs.cluster_list().is_empty());
    assert!(!sel.attrs.is_abrr_reflected());
    assert_eq!(sel.attrs.next_hop, NextHop(3), "next-hop-self applied");
}
