//! The closed-form full mesh (`abrr::audit::full_mesh_selections`)
//! against the full-mesh simulation on the corpus: every file's
//! fault-free FullMesh run that quiesces selects, at every router and
//! for every prefix, exactly the exit and AS path of the closed form
//! over that run's own borders' routes.

use abrr::audit;
use abrr::spec::Mode;
use netsim::RunConfig;
use std::path::PathBuf;

#[test]
fn every_quiescing_full_mesh_corpus_run_equals_the_closed_form() {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(scenario::corpus_dir())
        .expect("corpus dir exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("json"))
        .collect();
    paths.sort();
    let mut compared = 0;
    for path in &paths {
        let loaded = scenario::load_path(path).expect("corpus file loads");
        let mut file = loaded.file().clone();
        file.faults.clear();
        let loaded = scenario::compile::compile(file);
        let run = loaded
            .run(Mode::FullMesh, RunConfig::default())
            .expect("full mesh runs");
        if !run.outcome.quiesced {
            continue;
        }
        for p in &loaded.prefixes() {
            for (r, want) in audit::full_mesh_selections(&run.sim, &run.spec, p) {
                let got = run.sim.node(r).selected(p);
                assert_eq!(
                    got.map(|s| (s.exit_router(), s.attrs.as_path())),
                    want.as_ref().map(|s| (s.exit_router(), s.attrs.as_path())),
                    "{}: router {r:?} prefix {p}",
                    path.display()
                );
                compared += 1;
            }
        }
    }
    assert!(compared > 0, "no corpus file's full-mesh run quiesced");
}
