//! Wire-mode differential gate (DESIGN.md §14).
//!
//! The wire transport contract: routing every session message through
//! the BGP byte codec must be *behaviorally invisible*. For every
//! golden scenario, encode-decode-verify mode (each UPDATE/OPEN
//! round-tripped through `bgp-wire` as a differential oracle) and
//! bytes-only mode (sessions literally carry encoded bytes) must
//! produce byte-identical fingerprints and byte-identical obs event
//! traces compared to the struct-mode reference. The window engine's
//! side of the same contract is `engine_equivalence.rs` (V4). Any
//! codec/semantics
//! drift that the struct-level goldens structurally cannot see
//! (mis-encoded attribute, lost path id, wrong NLRI packing) either
//! hard-fails inside the verify oracle or lands here as a diff.
//!
//! Everything lives in one `#[test]` because the obs layer is global
//! state; a single test function serializes the runs by construction.

use abrr_bench::fingerprint::scenarios;
use netsim::{RunConfig, WireMode};

/// One scenario run in one wire mode, with fresh obs state, returning
/// (fingerprint, trace JSONL).
fn run_traced(
    scenario: &abrr_bench::fingerprint::GoldenScenario,
    wire: WireMode,
) -> (String, String) {
    obs::trace::reset();
    obs::trace::set_spec("trace");
    let fp = scenario.run(RunConfig {
        wire,
        ..Default::default()
    });
    let trace = obs::trace::drain_jsonl();
    obs::trace::set_spec("off");
    (fp, trace)
}

/// Reports the first differing line of two traces instead of dumping
/// both multi-thousand-line strings.
fn assert_trace_eq(name: &str, wire: WireMode, got: &str, want: &str) {
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
            "{name}: obs trace diverged in {} mode at line {}:\n  struct: {w}\n  wire:   {g}",
            wire.name(),
            i + 1
        ),
        None => panic!(
            "{name}: obs trace length diverged in {} mode ({} vs {} lines)",
            wire.name(),
            got.lines().count(),
            want.lines().count()
        ),
    }
}

#[test]
fn wire_modes_are_behaviorally_invisible() {
    for scenario in scenarios() {
        let (fp_ref, trace_ref) = run_traced(&scenario, WireMode::Off);
        assert!(
            !trace_ref.is_empty(),
            "{}: struct-mode reference emitted no trace events",
            scenario.name
        );
        for wire in [WireMode::Verify, WireMode::Bytes] {
            let (fp, trace) = run_traced(&scenario, wire);
            assert_eq!(
                fp,
                fp_ref,
                "{}: fingerprint diverged in {} mode",
                scenario.name,
                wire.name()
            );
            assert_trace_eq(scenario.name, wire, &trace, &trace_ref);
        }
    }
}
