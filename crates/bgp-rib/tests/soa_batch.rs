//! Equivalence lock on the benchmark's `CandidateBatch` adapter:
//! `survivors` must return exactly what `best_as_level` returns — same
//! indices, same (input) order — for every candidate set and decision
//! config, and a reloaded batch must hold nothing of its previous set.
//! (Named for the struct-of-arrays batch the adapter replaced.)

use bgp_rib::{best_as_level, Candidate, CandidateBatch, DecisionConfig, MedMode};
use bgp_types::{AsPath, Asn, LocalPref, Med, NextHop, Origin, PathAttributes, RouteSource};
use std::sync::Arc;

/// Deterministic xorshift so the sweep needs no RNG dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn pick(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn candidate(rng: &mut Rng) -> Candidate {
    // Small value domains force heavy ties, so every step 1-4 filter
    // (and the MED group logic) actually discriminates.
    let as_count = rng.pick(3) as usize;
    let path: Vec<Asn> = (0..as_count).map(|_| Asn(1 + rng.pick(3) as u32)).collect();
    let mut attrs = PathAttributes::ebgp(AsPath::sequence(path), NextHop(rng.pick(50) as u32));
    if rng.pick(2) == 0 {
        attrs.local_pref = Some(LocalPref(100 + rng.pick(3) as u32 * 50));
    }
    if rng.pick(2) == 0 {
        attrs.med = Some(Med(rng.pick(4) as u32));
    }
    attrs.origin = match rng.pick(3) {
        0 => Origin::Igp,
        1 => Origin::Egp,
        _ => Origin::Incomplete,
    };
    let peer_addr = 1 + rng.pick(20) as u32;
    Candidate {
        attrs: Arc::new(attrs),
        source: RouteSource::Ebgp {
            peer_as: Asn(1 + rng.pick(3) as u32),
            peer_addr,
        },
        neighbor_id: peer_addr,
    }
}

#[test]
fn batch_matches_best_as_level_randomized_sweep() {
    let mut rng = Rng(0x2011_C0DE ^ 0xDEAD_BEEF);
    let mut batch = CandidateBatch::new();
    let configs = [
        DecisionConfig::default(),
        DecisionConfig {
            med: MedMode::AlwaysCompare,
            ..DecisionConfig::default()
        },
    ];
    for case in 0..500 {
        let n = rng.pick(12) as usize;
        let cands: Vec<Candidate> = (0..n).map(|_| candidate(&mut rng)).collect();
        for cfg in &configs {
            let expected = best_as_level(&cands, cfg);
            batch.load(&cands);
            let got = batch.survivors(cfg);
            assert_eq!(
                got, expected,
                "case {case} diverged ({:?}, {n} candidates)",
                cfg.med
            );
        }
    }
}

#[test]
fn batch_empty_set_has_no_survivors() {
    let mut batch = CandidateBatch::new();
    batch.load(&[]);
    assert!(batch.survivors(&DecisionConfig::default()).is_empty());
}

#[test]
fn batch_reuse_across_loads_is_clean() {
    // A big load followed by a small one must not leak stale columns.
    let mut rng = Rng(7);
    let mut batch = CandidateBatch::new();
    let big: Vec<Candidate> = (0..10).map(|_| candidate(&mut rng)).collect();
    batch.load(&big);
    batch.survivors(&DecisionConfig::default());
    let small: Vec<Candidate> = (0..2).map(|_| candidate(&mut rng)).collect();
    batch.load(&small);
    let expected = best_as_level(&small, &DecisionConfig::default());
    assert_eq!(batch.survivors(&DecisionConfig::default()), expected);
}

#[test]
fn local_routes_survive_med_in_batch() {
    // A route with an empty path has no MED group and must never be
    // MED-eliminated — mirror of the scalar-path test.
    let local = Candidate {
        attrs: Arc::new(PathAttributes::local(NextHop(1)).with_med(1000)),
        source: RouteSource::Ebgp {
            peer_as: Asn(1),
            peer_addr: 1,
        },
        neighbor_id: 1,
    };
    let mut attrs = PathAttributes::ebgp(AsPath::empty(), NextHop(2));
    attrs.med = Some(Med(0));
    let e = Candidate {
        attrs: Arc::new(attrs),
        source: RouteSource::Ebgp {
            peer_as: Asn(1),
            peer_addr: 2,
        },
        neighbor_id: 2,
    };
    let cands = vec![local, e];
    let mut batch = CandidateBatch::new();
    batch.load(&cands);
    assert_eq!(batch.survivors(&DecisionConfig::default()).len(), 2);
}
