//! Wire-mode differential gate (DESIGN.md §14).
//!
//! The wire transport contract: routing every session message through
//! the BGP byte codec must be *behaviorally invisible*. For every
//! golden scenario, encode-decode-verify mode (each UPDATE/OPEN
//! round-tripped through `bgp-wire` as a differential oracle) and
//! bytes-only mode (sessions literally carry encoded bytes) must
//! produce byte-identical fingerprints and byte-identical obs event
//! traces compared to the struct-mode reference — on both the
//! sequential engine and the AP-sharded engine. Any codec/semantics
//! drift that the struct-level goldens structurally cannot see
//! (mis-encoded attribute, lost path id, wrong NLRI packing) either
//! hard-fails inside the verify oracle or lands here as a diff.
//!
//! Everything lives in one `#[test]` because the obs layer is global
//! state; a single test function serializes the runs by construction.

use abrr_bench::fingerprint::scenarios;
use netsim::{Engine, RunConfig, WireMode};

/// One scenario run under one engine and wire mode, with fresh obs
/// state, returning (fingerprint, trace JSONL).
fn run_traced(
    scenario: &abrr_bench::fingerprint::GoldenScenario,
    engine: Engine,
    wire: WireMode,
) -> (String, String) {
    obs::trace::reset();
    obs::trace::set_spec("trace");
    let fp = scenario.run(RunConfig {
        engine,
        wire,
        ..Default::default()
    });
    let trace = obs::trace::drain_jsonl();
    obs::trace::set_spec("off");
    (fp, trace)
}

/// Reports the first differing line of two traces instead of dumping
/// both multi-thousand-line strings.
fn assert_trace_eq(name: &str, engine: Engine, wire: WireMode, got: &str, want: &str) {
    if got == want {
        return;
    }
    let diff = got
        .lines()
        .zip(want.lines())
        .enumerate()
        .find(|(_, (a, b))| a != b);
    match diff {
        Some((i, (g, w))) => panic!(
            "{name}: obs trace diverged in {} mode on {} at line {}:\n  struct: {w}\n  wire:   {g}",
            wire.name(),
            engine.name(),
            i + 1
        ),
        None => panic!(
            "{name}: obs trace length diverged in {} mode on {} ({} vs {} lines)",
            wire.name(),
            engine.name(),
            got.lines().count(),
            want.lines().count()
        ),
    }
}

#[test]
fn wire_modes_are_behaviorally_invisible() {
    for scenario in scenarios() {
        for engine in [Engine::Seq, Engine::Sharded(2)] {
            let (fp_ref, trace_ref) = run_traced(&scenario, engine, WireMode::Off);
            assert!(
                !trace_ref.is_empty(),
                "{}: struct-mode reference emitted no trace events",
                scenario.name
            );
            for wire in [WireMode::Verify, WireMode::Bytes] {
                let (fp, trace) = run_traced(&scenario, engine, wire);
                assert_eq!(
                    fp,
                    fp_ref,
                    "{}: fingerprint diverged in {} mode on {}",
                    scenario.name,
                    wire.name(),
                    engine.name()
                );
                assert_trace_eq(scenario.name, engine, wire, &trace, &trace_ref);
            }
        }
    }
}
