//! Seeded random scenario generation.
//!
//! Every generated scenario encodes a *true* claim of the paper: ABRR
//! on an arbitrary connected topology, with arbitrary MED/LOCAL_PREF
//! policy mixes and a survivable fault schedule, must quiesce, stay
//! loop- and blackhole-free, match full mesh's exits after recovery
//! (in closed form, over the routes the live borders hold), and be
//! unchanged by routing every session message
//! through the BGP byte codec (the `wire` differential oracle). The
//! generator therefore
//! only emits *recovery-guaranteed* faults:
//!
//! * session flaps on sessions the ABRR plane actually has
//!   (ARR ↔ anyone) — the session comes back and resyncs;
//! * crash-restarts of borders that feed nothing — eBGP state learned
//!   at a crashed border is lost for good (RFC 4271 RIB loss), so
//!   feeding borders are never crashed;
//! * permanent ARR failures only when every AP keeps >= 2 ARRs.
//!
//! Anything outside this envelope (e.g. killing the only origin of a
//! prefix) is a *legitimately failing* scenario — that is what the
//! corpus xfail gadgets and the shrinker acceptance test exercise.

use crate::schema::*;
use abrr::spec::Mode;
use bgp_types::{Ipv4Prefix, NextHop, RouterId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministically generates one random scenario from `seed`.
pub fn generate(seed: u64) -> ScenarioFile {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_rrs: u32 = rng.gen_range(1..=3u32);
    let n_borders: u32 = rng.gen_range(2..=6u32);
    let rrs: Vec<RouterId> = (1..=n_rrs).map(RouterId).collect();
    let borders: Vec<RouterId> = (10..10 + n_borders).map(RouterId).collect();

    // Connected topology: every border hangs off a random RR, the RRs
    // chain together, plus a few random extra links.
    let mut links: Vec<Link> = Vec::new();
    let mut have = std::collections::BTreeSet::new();
    let add = |links: &mut Vec<Link>,
               have: &mut std::collections::BTreeSet<(RouterId, RouterId)>,
               a: RouterId,
               b: RouterId,
               metric: u32| {
        let key = (a.min(b), a.max(b));
        if a != b && have.insert(key) {
            links.push(Link { a, b, metric });
        }
    };
    for b in &borders {
        let rr = rrs[rng.gen_range(0..rrs.len())];
        let metric = rng.gen_range(1..=10u32);
        add(&mut links, &mut have, rr, *b, metric);
    }
    for w in rrs.windows(2) {
        let metric = rng.gen_range(1..=10u32);
        add(&mut links, &mut have, w[0], w[1], metric);
    }
    let all: Vec<RouterId> = rrs.iter().chain(borders.iter()).copied().collect();
    for _ in 0..rng.gen_range(0..=3u32) {
        let a = all[rng.gen_range(0..all.len())];
        let b = all[rng.gen_range(0..all.len())];
        let metric = rng.gen_range(1..=20u32);
        add(&mut links, &mut have, a, b, metric);
    }

    // AP layout: uniform 1..=3 slices, every RR serving every AP (the
    // redundancy that makes ArrFailure survivable).
    let n_aps: u16 = rng.gen_range(1..=3u16);

    // Feeds: a few prefixes — including, sometimes, a spanning prefix
    // that crosses AP boundaries — each announced at 1..=3 borders
    // with a mix of ASes, MEDs and LOCAL_PREFs.
    let pool = [
        Ipv4Prefix::new(10 << 24, 8),
        Ipv4Prefix::new(0, 1),
        Ipv4Prefix::new(0xc0a8_0000, 16),
    ];
    let n_prefixes = rng.gen_range(1..=3usize);
    let mut feeds: Vec<Feed> = Vec::new();
    let mut peer_addr = 9000u32;
    for p in pool.iter().take(n_prefixes) {
        let n_origins = rng.gen_range(1..=3usize).min(borders.len());
        let mut origins = borders.clone();
        for i in 0..n_origins {
            let j = rng.gen_range(i..origins.len());
            origins.swap(i, j);
        }
        let lp: Option<u32> = if rng.gen_bool(0.3) {
            Some(if rng.gen_bool(0.5) { 90 } else { 110 })
        } else {
            None
        };
        for origin in origins.iter().take(n_origins) {
            peer_addr += 1;
            feeds.push(Feed {
                at: 0,
                router: *origin,
                prefix: *p,
                peer_as: 100 + 100 * rng.gen_range(0..2u32),
                peer_addr: NextHop(peer_addr),
                med: rng.gen_range(0..=2u32),
                local_pref: lp,
            });
        }
    }

    // Recovery-guaranteed faults.
    let feeding: std::collections::BTreeSet<RouterId> = feeds.iter().map(|f| f.router).collect();
    let idle_borders: Vec<RouterId> = borders
        .iter()
        .copied()
        .filter(|b| !feeding.contains(b))
        .collect();
    let mut faults: Vec<TimedFault> = Vec::new();
    let mut at = 10_000u64;
    for _ in 0..rng.gen_range(0..=2u32) {
        at += rng.gen_range(2_000..=10_000u64);
        let choice = rng.gen_range(0..3u32);
        match choice {
            0 => {
                let arr = rrs[rng.gen_range(0..rrs.len())];
                let other = all[rng.gen_range(0..all.len())];
                if arr != other {
                    faults.push(TimedFault {
                        at,
                        kind: faults::FaultKind::SessionFlap {
                            a: arr,
                            b: other,
                            down_for: rng.gen_range(3_000..=12_000u64),
                        },
                    });
                }
            }
            1 if !idle_borders.is_empty() => {
                let node = idle_borders[rng.gen_range(0..idle_borders.len())];
                faults.push(TimedFault {
                    at,
                    kind: faults::FaultKind::RouterCrash {
                        node,
                        down_for: rng.gen_range(3_000..=12_000u64),
                    },
                });
            }
            2 if rrs.len() >= 2 => {
                let arr = rrs[rng.gen_range(0..rrs.len())];
                faults.push(TimedFault {
                    at,
                    kind: faults::FaultKind::ArrFailure { arr },
                });
            }
            _ => {}
        }
    }
    // At most one permanent ARR failure: two could empty an AP.
    let mut seen_arr_failure = false;
    faults.retain(|f| match f.kind {
        faults::FaultKind::ArrFailure { .. } => {
            let keep = !seen_arr_failure;
            seen_arr_failure = true;
            keep
        }
        _ => true,
    });

    let clients_keep_backups = rng.gen_bool(0.3);
    let abrr_check = Check {
        mode: Mode::Abrr,
        quiesces: Some(true),
        no_loops: true,
        no_blackholes: true,
        matches_full_mesh: true,
        // Every generated case is also a wire-codec differential: the
        // same run in bytes wire mode must be byte-identical
        // (selections and obs traces).
        wire: true,
        exits: Vec::new(),
    };
    // No full-mesh check: the fault schedule references RRs, which do
    // not exist in the mesh plane. `matches_full_mesh` holds the ABRR
    // run to full mesh in closed form instead.
    ScenarioFile {
        name: format!("fuzz-{seed}"),
        comment: Some(
            "generated scenario: ABRR must converge, audit clean, match full mesh \
             over the live borders' routes, and be unchanged by the wire codec"
                .to_string(),
        ),
        network: Network::Gadget(GadgetNetwork {
            topology: TopologySource::Links(links),
            routers: borders,
            rrs,
            clusters: Vec::new(),
            aps: Some(ApScheme::Uniform(n_aps)),
            arrs: Vec::new(),
            spec: SpecKnobs {
                clients_keep_backups,
            },
        }),
        workload: Workload {
            feeds,
            withdraws: Vec::new(),
            cutovers: Vec::new(),
        },
        faults,
        checks: vec![abrr_check],
        budget: Budget::default(),
        expect_verdict: Verdict::Pass,
    }
}
