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

/// The event budget each gadget run gets: a run that reaches it
/// oscillates.
pub(super) const OSC_BUDGET: RunLimits = RunLimits {
    max_events: 100_000,
    max_time: Time::MAX,
};

/// Builds one mode of a corpus gadget, runs it once to [`OSC_BUDGET`] —
/// the experiment's own budget, not the file's — and prints its
/// verdict. Returns the run when it converged.
fn verdict(s: &Loaded, mode: Mode, wire: WireMode) -> Option<(Arc<NetworkSpec>, Sim<BgpNode>)> {
    let (spec, mut sim) = s.build(mode.clone(), wire).unwrap_or_else(|e| {
        eprintln!("correctness: {}: {e}", s.name());
        std::process::exit(1)
    });
    let out = sim.run(OSC_BUDGET);
    let label = format!("{mode:?}");
    if !out.quiesced {
        println!("  {label:<22} OSCILLATES (>{} events)", out.events);
        return None;
    }
    let loops = audit::count_loops(&sim, &spec, &s.prefixes());
    println!(
        "  {label:<22} converges ({} events, {loops} forwarding loops)",
        out.events
    );
    Some((spec, sim))
}

fn run(exp: &Experiment) {
    exp.header("gadgets: RFC3345-style MED oscillation; cyclic-IGP topology oscillation");
    for stem in ["med_gadget", "topology_gadget"] {
        let s = scenario::load_corpus(stem).unwrap_or_else(|e| {
            eprintln!("correctness: {stem}: {e:?}");
            std::process::exit(1)
        });
        println!("\n## {}", s.name());
        let mut abrr = None;
        for mode in [
            Mode::FullMesh,
            Mode::Abrr,
            Mode::Tbrr { multipath: false },
            Mode::Tbrr { multipath: true },
        ] {
            let converged = verdict(&s, mode.clone(), exp.wire);
            if mode == Mode::Abrr {
                abrr = converged;
            }
        }
        // Path-efficiency audit of the ABRR run against full mesh, in
        // closed form over the routes its own borders hold.
        if let Some((spec, sim)) = abrr {
            let report = audit::full_mesh_exits(&sim, &spec, &s.prefixes());
            println!(
                "  ABRR vs full-mesh exits: {}/{} match ({} mismatches)",
                report.compared - report.mismatches.len(),
                report.compared,
                report.mismatches.len()
            );
        }
    }
}
