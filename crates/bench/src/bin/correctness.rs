//! §2.3 correctness claims, executed: the MED and topology oscillation
//! gadgets under every scheme; forwarding-loop and path-efficiency
//! audits; and the loop-prevention ablation (reflected marker vs none).
//!
//! Run: `cargo run --release -p abrr-bench --bin correctness`

use abrr::prelude::*;
use abrr::scenarios::{self, Scenario};
use abrr_bench::{header, Args, Experiment, FlagSpec};
use netsim::{RunConfig, Time};

const FLAGS: &[FlagSpec] = &[];

const OSC_BUDGET: u64 = 100_000;

fn verdict(s: &Scenario, mode: Mode, cfg: RunConfig) -> String {
    let (sim, out) = s.run(mode.clone(), cfg);
    if !out.quiesced {
        return format!("OSCILLATES (>{} events)", out.events);
    }
    let spec = s.spec(mode);
    let loops = audit::count_loops(&sim, &spec, &s.prefixes);
    format!(
        "converges ({} events, {} forwarding loops)",
        out.events, loops
    )
}

fn main() {
    let args = Args::parse("correctness", FLAGS);
    let exp = Experiment::from_args(&args);
    let cfg = RunConfig {
        wire: exp.wire,
        limits: RunLimits {
            max_events: OSC_BUDGET,
            max_time: Time::MAX,
        },
    };
    header(
        "§2.3 — oscillation / loop / efficiency audit",
        "gadgets: RFC3345-style MED oscillation; cyclic-IGP topology oscillation",
    );
    for s in [scenarios::med_gadget(), scenarios::topology_gadget()] {
        println!("\n## {}", s.name);
        for mode in [
            Mode::FullMesh,
            Mode::Abrr,
            Mode::Tbrr { multipath: false },
            Mode::Tbrr { multipath: true },
        ] {
            println!("  {:<22} {}", format!("{mode:?}"), verdict(&s, mode, cfg));
        }
        // Path-efficiency audit for ABRR vs full mesh.
        let (ab, o1) = s.run(Mode::Abrr, cfg);
        let (mesh, o2) = s.run(Mode::FullMesh, cfg);
        if o1.quiesced && o2.quiesced {
            let spec = s.spec(Mode::Abrr);
            let report = audit::compare_exits(&ab, &spec, &mesh, &s.routers, &s.prefixes);
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
