//! Engine-equivalence gate (DESIGN.md §10, §12).
//!
//! The determinism contract: the two policies of the window loop —
//! `Epoch` and `Sharded` — must be indistinguishable from the
//! sequential oracle at any worker count. For every golden scenario ×
//! {Epoch, Sharded} × {1, 2, 8} workers this checks, against a `seq`
//! reference run:
//!
//! * the fingerprint equals the golden file, with the observability
//!   layer off (the default path) and on;
//! * the obs event trace is **byte-identical**;
//! * the metrics snapshot is **equal**.
//!
//! 1 worker is the fast path that short-circuits to the sequential loop
//! and must still stamp the same per-event dispatch ids (they are part
//! of each trace line); 2 is the smallest real split; 8 oversubscribes
//! the pool and, under `Sharded`, has more shards than some scenarios
//! have APs, so routing hints wrap.
//!
//! Everything lives in one `#[test]` because the obs layer is global
//! state; a single test function serializes the runs by construction
//! (this file is its own test binary, hence its own process).
//!
//! `#[ignore]`d: at ~25 s it is the slowest suite by a factor of two
//! and would hold Tier-1's `cargo test -q` past two minutes from a cold
//! build. `scripts/ci.sh` runs it with `-- --ignored`.

use abrr_bench::fingerprint::{golden_dir, scenarios, GoldenScenario};
use netsim::{Engine, RunConfig};

fn run(scn: &GoldenScenario, engine: Engine) -> String {
    scn.run(RunConfig {
        engine,
        ..Default::default()
    })
}

/// One scenario run under one engine with fresh obs state: fingerprint,
/// trace JSONL, metrics snapshot.
fn run_with_obs(scn: &GoldenScenario, engine: Engine) -> (String, String, obs::MetricsSnapshot) {
    obs::trace::reset();
    obs::trace::set_spec("trace");
    obs::metrics::reset();
    obs::metrics::set_enabled(true);
    let fp = run(scn, engine);
    let trace = obs::trace::drain_jsonl();
    let snap = obs::metrics::snapshot();
    obs::metrics::set_enabled(false);
    obs::trace::set_spec("off");
    obs::trace::reset();
    (fp, trace, snap)
}

/// Byte-identical, not just semantically equal: compares the rendered
/// JSONL directly and reports the first differing line (a full-string
/// assert would dump both multi-thousand-line traces).
fn assert_traces_equal(name: &str, engine: Engine, reference: &str, got: &str) {
    if got == reference {
        return;
    }
    let diff = reference
        .lines()
        .zip(got.lines())
        .enumerate()
        .find(|(_, (a, b))| a != b);
    match diff {
        Some((i, (want, actual))) => panic!(
            "{name}: trace diverged under {engine:?}, line {}:\n  seq: {want}\n  got: {actual}",
            i + 1
        ),
        None => panic!(
            "{name}: trace length diverged under {engine:?} ({} vs {} lines)",
            reference.lines().count(),
            got.lines().count()
        ),
    }
}

#[test]
#[ignore = "~25 s; scripts/ci.sh runs it with -- --ignored"]
fn every_engine_matches_goldens_traces_and_metrics() {
    if std::env::var("GOLDEN_BLESS").is_ok() {
        return; // blessing is done by golden_regression.rs
    }
    let dir = golden_dir();
    for scn in scenarios() {
        let path = dir.join(format!("{}.txt", scn.name));
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden file {} ({e})", path.display()));
        let (fp_ref, trace_ref, snap_ref) = run_with_obs(&scn, Engine::Seq);
        assert_eq!(
            fp_ref, golden,
            "{}: sequential reference no longer matches its golden file",
            scn.name
        );
        assert!(
            !trace_ref.is_empty(),
            "{}: sequential reference emitted no trace events",
            scn.name
        );
        assert!(
            !snap_ref.is_empty(),
            "{}: sequential reference recorded no metrics",
            scn.name
        );
        for workers in [1, 2, 8] {
            for engine in [Engine::Epoch(workers), Engine::Sharded(workers)] {
                assert_eq!(
                    run(&scn, engine),
                    golden,
                    "{}: fingerprint diverged from golden under {engine:?}",
                    scn.name
                );
                let (fp, trace, snap) = run_with_obs(&scn, engine);
                assert_eq!(
                    fp, golden,
                    "{}: fingerprint diverged from golden under {engine:?} with obs on",
                    scn.name
                );
                assert_eq!(
                    snap, snap_ref,
                    "{}: metrics snapshot diverged under {engine:?}",
                    scn.name
                );
                assert_traces_equal(scn.name, engine, &trace_ref, &trace);
            }
        }
    }
}
