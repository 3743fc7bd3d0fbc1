//! Session bounce robustness: tearing a session down (both endpoints
//! drop the peer's routes) and re-establishing it (both re-send their
//! Adj-RIB-Out) must restore the exact pre-reset steady state (BGP
//! re-advertises its table on session establishment).

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

fn abrr_net() -> (Arc<NetworkSpec>, Sim<BgpNode>) {
    let view = igp::PopTopologyBuilder::new(2, 3).build();
    let routers = view.routers();
    let mut spec = NetworkSpec::full_mesh(&view.topo, Asn(65000));
    spec.mode = Mode::Abrr;
    spec.ap_map = Some(ApMap::uniform(2));
    spec.arrs.insert(ApId(0), vec![routers[0], routers[3]]);
    spec.arrs.insert(ApId(1), vec![routers[1]]);
    let spec = Arc::new(spec);
    let sim = build_sim(spec.clone());
    (spec, sim)
}

/// Bounces the `a`–`b` session through the simulator's session events:
/// down at `t`, back up one microsecond later at the spec's latency.
fn bounce(sim: &mut Sim<BgpNode>, spec: &NetworkSpec, t: u64, a: RouterId, b: RouterId) {
    sim.schedule_session_down(t, a, b);
    sim.schedule_session_up(t + 1, a, b, spec.session_latency(a, b));
}

fn snapshot(
    sim: &Sim<BgpNode>,
    routers: &[RouterId],
    prefixes: &[Ipv4Prefix],
) -> Vec<Option<RouterId>> {
    routers
        .iter()
        .flat_map(|r| {
            prefixes
                .iter()
                .map(|p| sim.node(*r).selected(p).map(|s| s.exit_router()))
                .collect::<Vec<_>>()
        })
        .collect()
}

#[test]
fn client_arr_session_bounce_restores_state() {
    let (spec, mut sim) = abrr_net();
    let routers = spec.routers.clone();
    let prefixes = vec![pfx("10.0.0.0/8"), pfx("192.168.0.0/16")];
    sim.schedule_external(0, routers[2], feed(prefixes[0], 7018, 9001));
    sim.schedule_external(0, routers[4], feed(prefixes[1], 3356, 9002));
    assert!(sim.run_to_quiescence().quiesced);
    let before = snapshot(&sim, &routers, &prefixes);

    // Bounce the session between a plain client and the AP0 ARR.
    let t = sim.now() + 1;
    bounce(&mut sim, &spec, t, routers[5], routers[0]);
    assert!(sim.run_to_quiescence().quiesced);
    let after = snapshot(&sim, &routers, &prefixes);
    assert_eq!(before, after, "steady state must survive a session bounce");
}

#[test]
fn border_arr_session_bounce_restores_state() {
    // Bouncing the session between the *originating* border router and
    // its ARR forces the client→ARR direction to resync too.
    let (spec, mut sim) = abrr_net();
    let routers = spec.routers.clone();
    let p = pfx("10.0.0.0/8");
    sim.schedule_external(0, routers[2], feed(p, 7018, 9001));
    assert!(sim.run_to_quiescence().quiesced);
    let before = snapshot(&sim, &routers, &[p]);
    assert!(before.iter().all(|e| e.is_some()));

    let t = sim.now() + 1;
    bounce(&mut sim, &spec, t, routers[2], routers[0]);
    assert!(sim.run_to_quiescence().quiesced);
    assert_eq!(snapshot(&sim, &routers, &[p]), before);
    // The redundant ARR (routers[3]) kept everyone routed throughout —
    // paper §2.3.3's robustness argument for redundant ARRs.
    assert_eq!(
        sim.node(routers[3]).arr_in_entries(),
        1,
        "redundant ARR unaffected by the bounce"
    );
}

#[test]
fn trr_trr_session_bounce_restores_state() {
    let view = igp::PopTopologyBuilder::new(2, 3).build();
    let routers = view.routers();
    let mut spec = NetworkSpec::full_mesh(&view.topo, Asn(65000));
    spec.mode = Mode::Tbrr { multipath: false };
    spec.routers = routers.clone();
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
    let spec = Arc::new(spec);
    let mut sim = build_sim(spec.clone());
    let p = pfx("10.0.0.0/8");
    sim.schedule_external(0, routers[1], feed(p, 7018, 9001));
    assert!(sim.run_to_quiescence().quiesced);
    let clients: Vec<RouterId> = spec.routers.clone();
    let before = snapshot(&sim, &clients, &[p]);
    assert!(before.iter().all(|e| e.is_some()));

    // Bounce the inter-cluster TRR-TRR session: cluster 2 loses the
    // route transiently, then the resync restores it.
    let t = sim.now() + 1;
    bounce(&mut sim, &spec, t, routers[0], routers[3]);
    assert!(sim.run_to_quiescence().quiesced);
    assert_eq!(snapshot(&sim, &clients, &[p]), before);
}

#[test]
fn reset_of_unrelated_session_changes_nothing_and_costs_little() {
    let (spec, mut sim) = abrr_net();
    let routers = spec.routers.clone();
    let p = pfx("10.0.0.0/8");
    sim.schedule_external(0, routers[2], feed(p, 7018, 9001));
    assert!(sim.run_to_quiescence().quiesced);
    let tx_before = sim.stats(routers[5]).transmitted;
    // routers[5] never advertised anything; bouncing its session to the
    // AP1 ARR must only trigger the ARR-side resync.
    let t = sim.now() + 1;
    bounce(&mut sim, &spec, t, routers[5], routers[1]);
    assert!(sim.run_to_quiescence().quiesced);
    assert_eq!(
        sim.stats(routers[5]).transmitted,
        tx_before,
        "idle client resyncs nothing"
    );
    assert_eq!(
        sim.node(routers[5]).selected(&p).map(|s| s.exit_router()),
        Some(routers[2])
    );
}

#[test]
fn ebgp_export_accounting() {
    // Table 1, Client → eBGP Neighbor: exports counted per session with
    // sender exclusion.
    let (_spec, mut sim) = abrr_net();
    let p = pfx("10.0.0.0/8");
    // Router 3 (= routers[2] in id space R3) has TWO eBGP sessions; the
    // second-arriving route wins (higher LOCAL_PREF), changing the best.
    sim.schedule_external(0, RouterId(3), feed(p, 7018, 9001));
    sim.schedule_external(
        1,
        RouterId(3),
        ExternalEvent::EbgpAnnounce {
            prefix: p,
            peer_as: Asn(3356),
            peer_addr: 9002,
            attrs: Arc::new(
                PathAttributes::ebgp(AsPath::sequence([Asn(3356)]), NextHop(9002))
                    .with_local_pref(110),
            ),
        },
    );
    assert!(sim.run_to_quiescence().quiesced);
    // Best changed at least once; each change exports to the other
    // session (2 sessions - 1 learned-from).
    let exported = sim.node(RouterId(3)).counters().ebgp_exported;
    assert!(
        exported >= 1,
        "border with two sessions must export to the non-best session"
    );
    // A router with no eBGP sessions never exports.
    assert_eq!(sim.node(RouterId(5)).counters().ebgp_exported, 0);
}
