//! The §2.4 migration story: an ISP running TBRR deploys ABRR
//! alongside it and cuts over one Address Partition at a time, without
//! ever interrupting service.
//!
//! Run with: `cargo run --example transition`

use abrr::prelude::*;
use std::sync::Arc;

fn main() {
    // 2 PoPs x 3 routers; TBRR cluster per PoP; ABRR: 4 APs, ARRs
    // co-located with the old TRRs (hardware reuse).
    let view = igp::PopTopologyBuilder::new(2, 3).build();
    let routers = view.routers();
    let mut spec = NetworkSpec::full_mesh(&view.topo, Asn(65000));
    spec.mode = Mode::Transition;
    spec.ap_map = Some(ApMap::uniform(4));
    for (i, part) in ApMap::uniform(4).partitions().iter().enumerate() {
        spec.arrs.insert(part.id, vec![routers[i % 2 * 3]]); // routers 0 and 3 alternate
    }
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

    // Four prefixes, one per AP quarter.
    let prefixes: Vec<Ipv4Prefix> = ["10.0.0.0/8", "70.0.0.0/8", "130.0.0.0/8", "200.0.0.0/8"]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
    for (i, p) in prefixes.iter().enumerate() {
        sim.schedule_external(
            0,
            routers[(i * 2) % routers.len()],
            ExternalEvent::EbgpAnnounce {
                prefix: *p,
                peer_as: Asn(7018),
                peer_addr: 9000 + i as u32,
                attrs: Arc::new(PathAttributes::ebgp(
                    AsPath::sequence([Asn(7018)]),
                    NextHop(9000 + i as u32),
                )),
            },
        );
    }
    assert!(sim.run_to_quiescence().quiesced);

    let describe = |sim: &Sim<BgpNode>, stage: &str| {
        let observer = routers[4];
        print!("{stage:<24}");
        for p in &prefixes {
            let via = sim
                .node(observer)
                .selected(p)
                .map(|s| {
                    if s.attrs.is_abrr_reflected() {
                        "ABRR"
                    } else if !s.attrs.cluster_list().is_empty() {
                        "TBRR"
                    } else {
                        "local"
                    }
                })
                .unwrap_or("-");
            print!(" {p}={via}");
        }
        println!();
    };

    println!(
        "routes at router {:?}, by plane, as APs cut over:\n",
        routers[4]
    );
    describe(&sim, "before cutover");
    for ap in 0..4u16 {
        let t = sim.now() + 1;
        for r in spec.all_nodes() {
            sim.schedule_external(t, r, ExternalEvent::CutoverAp(ApId(ap)));
        }
        assert!(sim.run_to_quiescence().quiesced);
        // Service check at every step: all prefixes still routed,
        // loop-free.
        let loops = audit::count_loops(&sim, &spec, &prefixes);
        assert_eq!(loops, 0, "loops during transition");
        for p in &prefixes {
            for r in &routers {
                assert!(
                    sim.node(*r).selected(p).is_some(),
                    "blackhole during cutover"
                );
            }
        }
        describe(&sim, &format!("after cutover of AP{ap}"));
    }
    println!("\nall four APs migrated with zero blackholes and zero loops;");
    println!("TBRR can now be turned off (paper §2.4).");
}
