//! The paper's central semantic claim (§2.2): ABRR emulates full-mesh
//! iBGP. We verify it empirically on randomized networks: same
//! topology, same eBGP feeds — every router's steady-state selection
//! must equal full mesh's in closed form (`audit::full_mesh_selections`)
//! exactly, exit and AS path, and so must the full-mesh simulation's,
//! which checks the closed form itself; the data plane must be
//! loop-free.

use abrr::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Generates a random PoP network, role assignment and feed set.
struct RandomNet {
    spec_base: NetworkSpec,
    routers: Vec<RouterId>,
    rrs: Vec<RouterId>,
    n_aps: usize,
    feeds: Vec<(RouterId, ExternalEvent)>,
    prefixes: Vec<Ipv4Prefix>,
}

fn random_net(seed: u64) -> RandomNet {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_pops = rng.gen_range(2..=4);
    let per_pop = rng.gen_range(2..=4);
    // Sometimes violate the intra<inter metric rule — ABRR must still
    // match full-mesh (placement/metric freedom, §2.3.3).
    let (intra, inter) = if rng.gen_bool(0.5) {
        (1, 100)
    } else {
        (60, 10)
    };
    let view = igp::PopTopologyBuilder::new(n_pops, per_pop)
        .intra_metric(intra)
        .inter_metric(inter)
        .build();
    let routers = view.routers();
    let n_rrs = rng.gen_range(1..=3.min(routers.len()));
    let mut rrs: Vec<RouterId> = Vec::new();
    while rrs.len() < n_rrs {
        let cand = routers[rng.gen_range(0..routers.len())];
        if !rrs.contains(&cand) {
            rrs.push(cand);
        }
    }
    rrs.sort();
    let n_aps = rng.gen_range(1..=n_rrs);

    // Prefixes across the whole space; several exits per prefix with
    // random AS paths, MEDs, local prefs.
    let n_prefixes = rng.gen_range(3..=8);
    let mut prefixes = Vec::new();
    let mut feeds = Vec::new();
    for i in 0..n_prefixes {
        let addr = (rng.gen::<u32>() & 0xFFFF_0000).wrapping_add((i as u32) << 16);
        let p = Ipv4Prefix::new(addr, 16);
        prefixes.push(p);
        let n_exits = rng.gen_range(1..=3);
        for e in 0..n_exits {
            let exit = routers[rng.gen_range(0..routers.len())];
            let peer_as = 100 + rng.gen_range(0..3) as u32;
            let path_len = rng.gen_range(1..=3);
            let mut asns = vec![Asn(peer_as)];
            for _ in 1..path_len {
                asns.push(Asn(1000 + rng.gen_range(0..5) as u32));
            }
            let mut attrs = PathAttributes::ebgp(AsPath::sequence(asns), NextHop(0));
            if rng.gen_bool(0.5) {
                attrs.med = Some(bgp_types::Med(rng.gen_range(0..3)));
            }
            if rng.gen_bool(0.3) {
                attrs.local_pref = Some(bgp_types::LocalPref(if rng.gen_bool(0.5) {
                    110
                } else {
                    100
                }));
            }
            feeds.push((
                exit,
                ExternalEvent::EbgpAnnounce {
                    prefix: p,
                    peer_as: Asn(peer_as),
                    peer_addr: 9000 + (i * 10 + e) as u32,
                    attrs: Arc::new(attrs),
                },
            ));
        }
    }
    let spec_base = NetworkSpec::full_mesh(&view.topo, Asn(65000));
    RandomNet {
        spec_base,
        routers,
        rrs,
        n_aps,
        feeds,
        prefixes,
    }
}

/// A timed eBGP script: `(at, border, event)`.
type Script = Vec<(u64, RouterId, ExternalEvent)>;

/// The net's spec under `mode`: under ABRR, its ARRs round-robin over
/// the APs, every AP served by one or two of them.
fn spec_for(net: &RandomNet, mode: Mode) -> Arc<NetworkSpec> {
    let mut spec = net.spec_base.clone();
    spec.mode = mode.clone();
    spec.routers = net.routers.clone();
    if mode.has_abrr() {
        spec.ap_map = Some(ApMap::uniform(net.n_aps));
        for (i, part) in ApMap::uniform(net.n_aps).partitions().iter().enumerate() {
            let mut arrs = vec![net.rrs[i % net.rrs.len()]];
            if net.rrs.len() > 1 {
                arrs.push(net.rrs[(i + 1) % net.rrs.len()]);
            }
            arrs.sort();
            arrs.dedup();
            spec.arrs.insert(part.id, arrs);
        }
    }
    Arc::new(spec)
}

/// Runs `script` on the net under `mode` to quiescence.
fn run_script(net: &RandomNet, mode: Mode, script: &Script) -> (Arc<NetworkSpec>, Sim<BgpNode>) {
    let spec = spec_for(net, mode.clone());
    let mut sim = build_sim(spec.clone());
    for (at, r, ev) in script {
        sim.schedule_external(*at, *r, ev.clone());
    }
    let out = sim.run(RunLimits {
        max_events: 2_000_000,
        max_time: u64::MAX,
    });
    assert!(out.quiesced, "{mode:?} did not converge");
    (spec, sim)
}

/// Runs the net's feeds, all at time 0, under `mode` to quiescence.
fn run_mode(net: &RandomNet, mode: Mode) -> (Arc<NetworkSpec>, Sim<BgpNode>) {
    let script: Script = net
        .feeds
        .iter()
        .map(|(r, ev)| (0, *r, ev.clone()))
        .collect();
    run_script(net, mode, &script)
}

/// Asserts that every router's selection in `sim` has the exit and the
/// AS path full mesh selects in closed form over `sim`'s own borders'
/// routes, exactly: no equal-distance tolerance.
fn assert_matches_oracle(what: &str, spec: &NetworkSpec, sim: &Sim<BgpNode>, net: &RandomNet) {
    fn view(s: Option<&Selected>) -> Option<(RouterId, bgp_types::AsPathRef<'_>)> {
        s.map(|s| (s.exit_router(), s.attrs.as_path()))
    }
    for p in &net.prefixes {
        let oracle = audit::full_mesh_selections(sim, spec, p);
        assert_eq!(
            oracle.len(),
            net.routers.len(),
            "{what}: every router is live"
        );
        for (r, want) in &oracle {
            assert_eq!(
                view(sim.node(*r).selected(p)),
                view(want.as_ref()),
                "{what}: router {r:?} prefix {p}"
            );
        }
    }
}

/// ABRR and the full-mesh simulation both select exactly what full
/// mesh selects in closed form: exit and AS path, at every router.
#[test]
fn abrr_matches_full_mesh_on_random_networks() {
    for seed in 0..25u64 {
        let net = random_net(seed);
        for mode in [Mode::FullMesh, Mode::Abrr] {
            let (spec, sim) = run_mode(&net, mode.clone());
            assert_matches_oracle(&format!("seed {seed} {mode:?}"), &spec, &sim, &net);
        }
    }
}

#[test]
fn abrr_is_loop_free_on_random_networks() {
    for seed in 0..25u64 {
        let net = random_net(seed);
        let (spec, ab) = run_mode(&net, Mode::Abrr);
        assert_eq!(
            audit::count_loops(&ab, &spec, &net.prefixes),
            0,
            "seed {seed}: forwarding loop under ABRR"
        );
    }
}

#[test]
fn tbrr_multipath_converges_and_is_loop_free_on_engineered_metrics() {
    // With paper-style engineered metrics (intra < inter) multi-path
    // TBRR should behave; seeds with inverted metrics are skipped by
    // construction here.
    for seed in [0u64, 3, 7, 11] {
        let net = random_net(seed);
        let mut spec = net.spec_base.clone();
        spec.mode = Mode::Tbrr { multipath: true };
        spec.routers = net.routers.clone();
        spec.clusters = vec![ClusterSpec {
            id: 1,
            trrs: net.rrs.clone(),
            clients: net
                .routers
                .iter()
                .copied()
                .filter(|r| !net.rrs.contains(r))
                .collect(),
        }];
        let spec = Arc::new(spec);
        let mut sim = build_sim(spec.clone());
        for (r, ev) in &net.feeds {
            sim.schedule_external(0, *r, ev.clone());
        }
        let out = sim.run(RunLimits {
            max_events: 2_000_000,
            max_time: u64::MAX,
        });
        assert!(out.quiesced, "seed {seed}");
        assert_eq!(
            audit::count_loops(&sim, &spec, &net.prefixes),
            0,
            "seed {seed}"
        );
    }
}

#[test]
fn abrr_matches_full_mesh_after_withdrawals_and_flaps() {
    // §2.2's steady-state argument covers withdrawal dynamics too: after
    // an arbitrary mix of announcements, withdrawals and re-announcements,
    // the converged ABRR state must still equal full-mesh.
    for seed in 0..15u64 {
        let net = random_net(seed);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E3779B9) ^ 0x71D);
        // Build a timed script: initial feeds at t=0, then a shuffle of
        // withdrawals and re-announcements.
        let mut script: Script = net
            .feeds
            .iter()
            .map(|(r, ev)| (0u64, *r, ev.clone()))
            .collect();
        let mut t = 10_000u64;
        for (r, ev) in net.feeds.iter() {
            if let ExternalEvent::EbgpAnnounce {
                prefix, peer_addr, ..
            } = ev
            {
                if rng.gen_bool(0.5) {
                    script.push((
                        t,
                        *r,
                        ExternalEvent::EbgpWithdraw {
                            prefix: *prefix,
                            peer_addr: *peer_addr,
                        },
                    ));
                    t += 5_000;
                    if rng.gen_bool(0.5) {
                        script.push((t, *r, ev.clone()));
                        t += 5_000;
                    }
                }
            }
        }
        for mode in [Mode::FullMesh, Mode::Abrr] {
            let (spec, sim) = run_script(&net, mode.clone(), &script);
            let what = format!("seed {seed} {mode:?} after withdrawals");
            assert_matches_oracle(&what, &spec, &sim, &net);
        }
    }
}

#[test]
fn determinism_across_runs() {
    let net = random_net(42);
    let (_, a) = run_mode(&net, Mode::Abrr);
    let (_, b) = run_mode(&net, Mode::Abrr);
    for r in &net.routers {
        assert_eq!(a.node(*r).counters(), b.node(*r).counters());
        for p in &net.prefixes {
            assert_eq!(
                a.node(*r).selected(p).map(|s| s.exit_router()),
                b.node(*r).selected(p).map(|s| s.exit_router())
            );
        }
    }
}
