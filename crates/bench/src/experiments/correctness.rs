//! §2.3 correctness claims, executed: the MED and topology oscillation
//! gadgets (the corpus files `examples/scenarios/{med,topology}_gadget.json`)
//! under every scheme, with forwarding-loop and path-efficiency audits.
//! The loop-prevention ablation (reflected marker vs cluster list vs
//! none) is exercised by `crates/core/tests/misconfig.rs`.

use super::Def;
use crate::pipeline::Experiment;
use abrr::prelude::*;
use netsim::{Time, WireMode};
use scenario::Loaded;
use std::sync::Arc;
use workload::Tier1Config;

pub const DEF: Def = Def {
    name: "correctness",
    about: "§2.3 — oscillation / loop / efficiency audit",
    flags: &[],
    base: Tier1Config::default,
    artefacts: &[("correctness.txt", "")],
    run,
};

const OSC_BUDGET: RunLimits = RunLimits {
    max_events: 100_000,
    max_time: Time::MAX,
};

/// Builds one mode of a corpus gadget and runs it to [`OSC_BUDGET`] —
/// the experiment's own budget, not the file's.
fn run_gadget(
    s: &Loaded,
    mode: Mode,
    wire: WireMode,
) -> (Arc<NetworkSpec>, Sim<BgpNode>, RunOutcome) {
    let (spec, mut sim) = s
        .build(mode, true, wire)
        .unwrap_or_else(|e| panic!("{}: {e}", s.name()));
    let out = sim.run(OSC_BUDGET);
    (spec, sim, out)
}

fn verdict(s: &Loaded, mode: Mode, wire: WireMode) -> String {
    let (spec, sim, out) = run_gadget(s, mode, wire);
    if !out.quiesced {
        return format!("OSCILLATES (>{} events)", out.events);
    }
    let loops = audit::count_loops(&sim, &spec, &s.prefixes());
    format!(
        "converges ({} events, {} forwarding loops)",
        out.events, loops
    )
}

fn run(exp: &Experiment) {
    exp.header("gadgets: RFC3345-style MED oscillation; cyclic-IGP topology oscillation");
    for stem in ["med_gadget", "topology_gadget"] {
        let s = scenario::load_corpus(stem).unwrap_or_else(|e| panic!("{stem}: {e:?}"));
        println!("\n## {}", s.name());
        for mode in [
            Mode::FullMesh,
            Mode::Abrr,
            Mode::Tbrr { multipath: false },
            Mode::Tbrr { multipath: true },
        ] {
            let label = format!("{mode:?}");
            println!("  {label:<22} {}", verdict(&s, mode, exp.wire));
        }
        // Path-efficiency audit for ABRR vs full mesh.
        let (spec, ab, o1) = run_gadget(&s, Mode::Abrr, exp.wire);
        let (_, mesh, o2) = run_gadget(&s, Mode::FullMesh, exp.wire);
        if o1.quiesced && o2.quiesced {
            let report = audit::compare_exits(&ab, &spec, &mesh, &s.routers(), &s.prefixes());
            println!(
                "  ABRR vs full-mesh exits: {}/{} match ({} mismatches)",
                report.compared - report.mismatches.len(),
                report.compared,
                report.mismatches.len()
            );
        }
    }
    println!("\n# Expected: TBRR single-path oscillates on both gadgets; full-mesh, ABRR");
    println!("# (and usually TBRR-multi on the MED gadget) converge; ABRR exits == full-mesh.");
}
