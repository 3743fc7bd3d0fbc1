//! §2.4: incremental TBRR→ABRR transition — routers run both protocols,
//! initially accept TBRR routes, and cut over one AP at a time.

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

/// 2 PoPs × 3 routers. TBRR: one cluster per PoP, TRR = first router of
/// the PoP. ABRR: 2 APs, ARRs = the two TRR routers (reused hardware).
fn transition_net() -> (Arc<NetworkSpec>, Vec<RouterId>) {
    let view = igp::PopTopologyBuilder::new(2, 3).build();
    let routers = view.routers();
    let mut spec = NetworkSpec::full_mesh(&view.topo, Asn(65000));
    spec.mode = Mode::Transition;
    spec.routers = routers.clone();
    spec.ap_map = Some(ApMap::uniform(2));
    spec.arrs.insert(ApId(0), vec![routers[0]]);
    spec.arrs.insert(ApId(1), vec![routers[3]]);
    spec.clusters = vec![
        ClusterSpec {
            id: 1,
            trrs: vec![routers[0]],
            clients: routers[1..3].to_vec(),
        },
        ClusterSpec {
            id: 2,
            trrs: vec![routers[3]],
            clients: routers[4..6].to_vec(),
        },
    ];
    (Arc::new(spec), routers)
}

#[test]
fn pre_cutover_uses_tbrr_routes() {
    let (spec, routers) = transition_net();
    let mut sim = build_sim(spec.clone());
    let p = pfx("10.0.0.0/8"); // AP0
    sim.schedule_external(0, routers[1], feed(p, 7018, 9001));
    assert!(sim.run_to_quiescence().quiesced);
    // Client in the other cluster gets the route (via TBRR) even though
    // no AP has been cut over.
    let victim = routers[4];
    let sel = sim.node(victim).selected(&p).expect("route via TBRR");
    assert_eq!(sel.exit_router(), routers[1]);
    // It must be the TRR-learned copy: cluster list non-empty.
    assert!(!sel.attrs.cluster_list().is_empty());
}

#[test]
fn cutover_switches_ap_to_abrr_routes() {
    let (spec, routers) = transition_net();
    let mut sim = build_sim(spec.clone());
    let p0 = pfx("10.0.0.0/8"); // AP0
    let p1 = pfx("192.168.0.0/16"); // AP1
    sim.schedule_external(0, routers[1], feed(p0, 7018, 9001));
    sim.schedule_external(0, routers[4], feed(p1, 3356, 9002));
    assert!(sim.run_to_quiescence().quiesced);

    // Cut AP0 over on every node.
    let t = sim.now() + 1;
    for r in spec.all_nodes() {
        sim.schedule_external(t, r, ExternalEvent::CutoverAp(ApId(0)));
    }
    assert!(sim.run_to_quiescence().quiesced);

    let victim = routers[4];
    // AP0 prefix now learned via ABRR: reflected marker present, no
    // cluster list.
    let sel0 = sim.node(victim).selected(&p0).expect("route");
    assert!(sel0.attrs.is_abrr_reflected(), "AP0 must be ABRR-learned");
    assert_eq!(sel0.exit_router(), routers[1]);
    // AP1 prefix still via TBRR.
    let other = routers[1];
    let sel1 = sim.node(other).selected(&p1).expect("route");
    assert!(
        !sel1.attrs.is_abrr_reflected(),
        "AP1 not yet cut over: must still be TBRR-learned"
    );

    // Cut AP1 over too; now everything is ABRR.
    let t = sim.now() + 1;
    for r in spec.all_nodes() {
        sim.schedule_external(t, r, ExternalEvent::CutoverAp(ApId(1)));
    }
    assert!(sim.run_to_quiescence().quiesced);
    let sel1 = sim.node(other).selected(&p1).expect("route");
    assert!(sel1.attrs.is_abrr_reflected());
    assert_eq!(sel1.exit_router(), routers[4]);
}

#[test]
fn spanning_prefix_needs_every_covering_ap() {
    // §2.4 accept-set rule: a prefix covered by several APs switches to
    // ABRR routes only once *all* of them are in the accept set. With
    // ApMap::uniform(2), 0.0.0.0/0 overlaps both partitions.
    let (spec, routers) = transition_net();
    let mut sim = build_sim(spec.clone());
    let p = pfx("0.0.0.0/0");
    sim.schedule_external(0, routers[1], feed(p, 7018, 9001));
    assert!(sim.run_to_quiescence().quiesced);
    let victim = routers[4];

    // Cut over AP0 only: the accept set {AP0} does not cover the
    // spanning prefix, so it must stay on its TBRR-learned copy.
    let t = sim.now() + 1;
    for r in spec.all_nodes() {
        sim.schedule_external(t, r, ExternalEvent::CutoverAp(ApId(0)));
    }
    assert!(sim.run_to_quiescence().quiesced);
    let sel = sim.node(victim).selected(&p).expect("route");
    assert!(
        !sel.attrs.is_abrr_reflected(),
        "spanning prefix flipped with only one of its APs cut over"
    );

    // Cut over AP1 too: now every covering AP is accepted.
    let t = sim.now() + 1;
    for r in spec.all_nodes() {
        sim.schedule_external(t, r, ExternalEvent::CutoverAp(ApId(1)));
    }
    assert!(sim.run_to_quiescence().quiesced);
    let sel = sim.node(victim).selected(&p).expect("route");
    assert!(sel.attrs.is_abrr_reflected());
    assert_eq!(sel.exit_router(), routers[1]);
}

#[test]
fn repeated_cutover_is_a_noop() {
    // The accept set is a set: re-announcing an already-cut-over AP must
    // not recompute anything or generate a single update.
    let (spec, routers) = transition_net();
    let mut sim = build_sim(spec.clone());
    let p0 = pfx("10.0.0.0/8");
    sim.schedule_external(0, routers[1], feed(p0, 7018, 9001));
    sim.run_to_quiescence();
    let t = sim.now() + 1;
    for r in spec.all_nodes() {
        sim.schedule_external(t, r, ExternalEvent::CutoverAp(ApId(0)));
    }
    assert!(sim.run_to_quiescence().quiesced);

    let generated_before: u64 = spec
        .all_nodes()
        .iter()
        .map(|r| sim.node(*r).counters().generated)
        .sum();
    let selections_before: Vec<_> = routers
        .iter()
        .map(|r| sim.node(*r).selected(&p0).map(|s| s.exit_router()))
        .collect();

    let t = sim.now() + 1;
    for r in spec.all_nodes() {
        sim.schedule_external(t, r, ExternalEvent::CutoverAp(ApId(0)));
    }
    assert!(sim.run_to_quiescence().quiesced);

    let generated_after: u64 = spec
        .all_nodes()
        .iter()
        .map(|r| sim.node(*r).counters().generated)
        .sum();
    let selections_after: Vec<_> = routers
        .iter()
        .map(|r| sim.node(*r).selected(&p0).map(|s| s.exit_router()))
        .collect();
    assert_eq!(
        generated_before, generated_after,
        "duplicate cutover generated updates"
    );
    assert_eq!(selections_before, selections_after);
}

#[test]
fn no_blackholes_at_any_stage() {
    let (spec, routers) = transition_net();
    let mut sim = build_sim(spec.clone());
    let prefixes: Vec<Ipv4Prefix> = vec![pfx("10.0.0.0/8"), pfx("192.168.0.0/16")];
    sim.schedule_external(0, routers[1], feed(prefixes[0], 7018, 9001));
    sim.schedule_external(0, routers[4], feed(prefixes[1], 3356, 9002));
    assert!(sim.run_to_quiescence().quiesced);

    let assert_all_routed = |sim: &Sim<BgpNode>, stage: &str| {
        for p in &prefixes {
            for out in audit::audit_forwarding(sim, &spec, p).values() {
                assert!(
                    matches!(out, audit::ForwardingOutcome::Delivered { .. }),
                    "{stage}: {out:?}"
                );
            }
        }
    };
    assert_all_routed(&sim, "before cutover");
    for ap in [ApId(0), ApId(1)] {
        let t = sim.now() + 1;
        for r in spec.all_nodes() {
            sim.schedule_external(t, r, ExternalEvent::CutoverAp(ap));
        }
        assert!(sim.run_to_quiescence().quiesced);
        assert_all_routed(&sim, &format!("after cutover of {ap:?}"));
    }
}

#[test]
fn post_transition_matches_pure_abrr() {
    let (spec, routers) = transition_net();
    let mut sim = build_sim(spec.clone());
    let p0 = pfx("10.0.0.0/8");
    let p1 = pfx("192.168.0.0/16");
    sim.schedule_external(0, routers[1], feed(p0, 7018, 9001));
    sim.schedule_external(0, routers[4], feed(p1, 3356, 9002));
    sim.run_to_quiescence();
    for ap in [ApId(0), ApId(1)] {
        let t = sim.now() + 1;
        for r in spec.all_nodes() {
            sim.schedule_external(t, r, ExternalEvent::CutoverAp(ap));
        }
        sim.run_to_quiescence();
    }

    // Pure ABRR reference.
    let mut pure = (*spec).clone();
    pure.mode = Mode::Abrr;
    pure.clusters.clear();
    let pure = Arc::new(pure);
    let mut ref_sim = build_sim(pure);
    ref_sim.schedule_external(0, routers[1], feed(p0, 7018, 9001));
    ref_sim.schedule_external(0, routers[4], feed(p1, 3356, 9002));
    assert!(ref_sim.run_to_quiescence().quiesced);

    for r in &routers {
        for p in [&p0, &p1] {
            assert_eq!(
                sim.node(*r).selected(p).map(|s| s.exit_router()),
                ref_sim.node(*r).selected(p).map(|s| s.exit_router()),
                "router {r:?} prefix {p}"
            );
        }
    }
}
