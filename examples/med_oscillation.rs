//! The MED oscillation story (paper §2.3.1), live.
//!
//! Runs the RFC 3345-style gadget under single-path TBRR (which cycles
//! forever) and under ABRR and full-mesh (which converge to identical,
//! loop-free state), then does the same for the topology-based
//! oscillation gadget.
//!
//! Both gadgets are loaded from the scenario corpus — the same
//! declarative files `repro scenario` checks in
//! CI — rather than hand-built topologies, so this example and the
//! corpus verdicts can never drift apart.
//!
//! Run with: `cargo run --example med_oscillation`

use abrr::audit;
use abrr::Mode;
use scenario::schema::mode_keyword;
use scenario::Loaded;

fn load(stem: &str) -> Loaded {
    scenario::load_corpus(stem).unwrap_or_else(|e| panic!("{stem}.json failed to load: {e:?}"))
}

fn show(loaded: &Loaded) {
    println!("\n=== scenario: {} ===", loaded.file().name);
    let routers = loaded.routers();
    let prefixes = loaded.prefixes();
    for mode in [
        Mode::Tbrr { multipath: false },
        Mode::Tbrr { multipath: true },
        Mode::Abrr,
        Mode::FullMesh,
    ] {
        let label = mode_keyword(&mode);
        let run = loaded
            .run(mode, true, Default::default())
            .expect("scenario runs");
        if run.outcome.quiesced {
            let loops = audit::count_loops(&run.sim, &run.spec, &prefixes);
            let exits: Vec<String> = routers
                .iter()
                .map(|r| {
                    let e = run
                        .sim
                        .node(*r)
                        .selected(&prefixes[0])
                        .map(|x| x.exit_router());
                    format!(
                        "{r:?}->{}",
                        e.map(|e| format!("{e:?}")).unwrap_or("-".into())
                    )
                })
                .collect();
            println!(
                "{label:<24} CONVERGES in {:>6} events; loops={loops}; exits: {}",
                run.outcome.events,
                exits.join(" ")
            );
        } else {
            println!(
                "{label:<24} OSCILLATES — still churning after {} events",
                run.outcome.events
            );
        }
    }
}

fn main() {
    println!("Single-path TBRR suffers MED-based and topology-based oscillations;");
    println!("ABRR (and full-mesh, which it emulates) does not. Paper §2.3.");
    let gadgets = [load("med_gadget"), load("topology_gadget")];
    for g in &gadgets {
        show(g);
    }

    // Check ABRR == full-mesh exits on both gadgets.
    for g in &gadgets {
        let ab = g
            .run(Mode::Abrr, true, Default::default())
            .expect("abrr runs");
        let fm = g
            .run(Mode::FullMesh, true, Default::default())
            .expect("full mesh runs");
        assert!(ab.outcome.quiesced && fm.outcome.quiesced);
        let rep = audit::compare_exits(&ab.sim, &ab.spec, &fm.sim, &g.routers(), &g.prefixes());
        println!(
            "\n{}: ABRR matches full-mesh on {}/{} (router, prefix) pairs",
            g.file().name,
            rep.compared - rep.mismatches.len(),
            rep.compared
        );
        assert!(rep.is_efficient());
    }

    // And the corpus verdicts themselves — the declared `checks` of
    // each file, the same thing CI's scenario stage runs.
    for g in &gadgets {
        let report = scenario::run_checks(g);
        assert!(report.all_green(), "corpus checks failed: {report:?}");
        println!(
            "{}: all {} declared corpus checks green",
            report.name, report.checks_run
        );
    }
}
