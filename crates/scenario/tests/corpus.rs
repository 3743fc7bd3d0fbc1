//! Runs the committed gadget corpus end-to-end and exercises the
//! shrinker on the intentional-violation gadget.
//!
//! Everything lives in ONE `#[test]`: the `wire` oracle captures the
//! global obs trace stream, so no other simulation may run while a
//! capture is in flight.

use scenario::shrink::shrink;
use scenario::{corpus_dir, load_path, run_checks};
use std::path::PathBuf;

#[test]
fn corpus_verdicts_and_shrink() {
    // --- every corpus file must reach its expected verdict ----------
    let mut paths: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("corpus dir exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("json"))
        .collect();
    paths.sort();
    assert!(
        paths.len() >= 8,
        "expected the full corpus, found {paths:?}"
    );

    let mut problems = Vec::new();
    for path in &paths {
        let loaded = match load_path(path) {
            Ok(l) => l,
            Err(errs) => {
                problems.push(format!("{}: does not load: {errs:?}", path.display()));
                continue;
            }
        };
        let report = run_checks(&loaded);
        if !report.verdict_ok() {
            problems.push(format!(
                "{}: expect_fail={} but failures were {:#?}",
                path.display(),
                report.expect_fail,
                report.failures
            ));
        }
    }
    assert!(problems.is_empty(), "{}", problems.join("\n"));

    // --- the intentional blackhole must be caught and shrink --------
    let xfail = corpus_dir().join("xfail_blackhole.json");
    let loaded = load_path(&xfail).expect("xfail gadget loads");
    let report = run_checks(&loaded);
    assert!(
        report
            .failures
            .iter()
            .any(|f| f.msg.contains("blackhole") || f.oracle == "no_blackholes"),
        "the seeded blackhole was not caught: {:#?}",
        report.failures
    );

    let original = loaded.file().clone();
    let shrunk = shrink(&original, 200);
    // The cruft (second feed, spare router, extra links, the session
    // flap) must be gone; the violation must survive.
    let size = |f: &scenario::ScenarioFile| {
        let (links, routers) = match &f.network {
            scenario::schema::Network::Gadget(g) => match &g.topology {
                scenario::schema::TopologySource::Links(l) => (l.len(), g.routers.len()),
                _ => (0, g.routers.len()),
            },
            _ => (0, 0),
        };
        links + routers + f.workload.feeds.len() + f.faults.len()
    };
    assert!(
        size(&shrunk) < size(&original),
        "shrinker removed nothing: {} -> {}",
        size(&original),
        size(&shrunk)
    );
    assert!(
        shrunk.faults.len() <= 1,
        "the decoy session flap should be shrunk away: {:?}",
        shrunk.faults
    );
    assert!(
        shrunk.workload.feeds.len() <= 1,
        "the decoy AP-1 feed should be shrunk away: {:?}",
        shrunk.workload.feeds
    );
    // The shrunk scenario is itself a valid, still-failing corpus file.
    assert!(scenario::validate::validate(&shrunk).is_empty());
    let reloaded = scenario::load_str(&shrunk.to_json_pretty()).expect("shrunk file loads");
    let report = run_checks(&reloaded);
    assert!(
        !report.failures.is_empty(),
        "shrunk scenario no longer fails"
    );
}
