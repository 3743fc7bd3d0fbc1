//! DSL-port golden regression.
//!
//! The canonical gadgets used to exist only as Rust constructors in
//! `abrr::scenarios`; the corpus under `examples/scenarios/` ports them
//! to the declarative DSL. This suite pins the port in both directions:
//!
//!   * each ported gadget file must be *behaviorally identical* to its
//!     Rust constructor — byte-equal fingerprints under every
//!     converging mode;
//!   * the DSL runs must reproduce golden fingerprint files under
//!     `tests/golden/` (the gadget goldens are blessed from the DSL
//!     runs; `tier1_reference.json` must reproduce the pre-existing
//!     `fig6_*` goldens, which were recorded from the hand-built
//!     tier-1 specs long before the DSL existed).
//!
//! Re-bless (after an intentional behavior change only):
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test -p abrr-bench --test scenario_golden
//! ```

use abrr::scenarios::Scenario;
use abrr_bench::fingerprint::{fingerprint, golden_dir};
use scenario::compile::mode_of;
use scenario::schema::ModeSpec;
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios")
}

/// The ported gadgets: DSL file stem + the Rust constructor it ports.
fn ports() -> Vec<(&'static str, Scenario)> {
    vec![
        ("med_gadget", abrr::scenarios::med_gadget()),
        ("topology_gadget", abrr::scenarios::topology_gadget()),
        ("small_reference", abrr::scenarios::small_reference()),
    ]
}

/// Modes under which every ported gadget converges (single-path TBRR
/// is excluded: `med_gadget` oscillates forever there by design, so
/// its final state depends on the event budget, not the protocol).
const MODES: &[ModeSpec] = &[ModeSpec::FullMesh, ModeSpec::Abrr, ModeSpec::TbrrMultipath];

fn dsl_fingerprint(stem: &str, mode: ModeSpec) -> String {
    let path = corpus_dir().join(format!("{stem}.json"));
    let loaded = scenario::load_path(&path)
        .unwrap_or_else(|e| panic!("{} failed to load: {e:?}", path.display()));
    let run = loaded
        .run(mode, true, Default::default())
        .unwrap_or_else(|e| panic!("{stem} failed to run: {e}"));
    assert!(
        run.outcome.quiesced,
        "{stem} did not quiesce under {mode:?}"
    );
    fingerprint(stem, &run.sim, &run.spec)
}

fn rust_fingerprint(stem: &str, scn: &Scenario, mode: ModeSpec) -> String {
    let budget = netsim::RunConfig {
        limits: netsim::RunLimits {
            max_events: 1_000_000,
            max_time: netsim::Time::MAX,
        },
        ..Default::default()
    };
    let (sim, outcome) = scn.run(mode_of(mode), budget);
    assert!(
        outcome.quiesced,
        "{stem} (Rust constructor) did not quiesce under {mode:?}"
    );
    fingerprint(stem, &sim, &scn.spec(mode_of(mode)))
}

/// Every ported gadget file is behaviorally identical to the Rust
/// constructor it replaces: same topology, roles, feeds, tuning ⇒
/// byte-equal fingerprints.
#[test]
fn dsl_ports_match_rust_constructors() {
    for (stem, scn) in ports() {
        for &mode in MODES {
            assert_eq!(
                rust_fingerprint(stem, &scn, mode),
                dsl_fingerprint(stem, mode),
                "{stem} DSL port diverges from abrr::scenarios::{stem} under {mode:?}"
            );
        }
    }
}

/// The DSL gadget runs reproduce the golden fingerprints under
/// `tests/golden/scenario_*.txt` (ABRR plane — the mode every gadget
/// exercises with the full oracle set).
#[test]
fn dsl_gadgets_match_golden() {
    let dir = golden_dir();
    let bless = std::env::var("GOLDEN_BLESS").is_ok();
    if bless {
        std::fs::create_dir_all(&dir).expect("create golden dir");
    }
    for (stem, _) in ports() {
        let path = dir.join(format!("scenario_{stem}.txt"));
        let actual = dsl_fingerprint(stem, ModeSpec::Abrr);
        if bless {
            std::fs::write(&path, &actual).expect("write golden");
            eprintln!("blessed {}", path.display());
            continue;
        }
        let expected = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden file {} ({e})", path.display()));
        assert_eq!(
            expected, actual,
            "DSL scenario {stem} diverged from its golden fingerprint"
        );
    }
}

/// `tier1_reference.json` reproduces the *pre-DSL* goldens: its scale
/// knobs equal the golden model (3 PoPs × 3, 120 prefixes) and its
/// defaults (seed, 2 ARRs/AP, 2 TRRs/cluster, 1 s MRAI) equal the
/// `fig6_*` spec options, so the loader must land on byte-identical
/// converged state — the strongest possible check that the DSL compile
/// path builds the same specs `workload::specs` does.
#[test]
fn tier1_reference_reproduces_fig6_goldens() {
    if std::env::var("GOLDEN_BLESS").is_ok() {
        return; // fig6 goldens are owned by golden_regression.rs
    }
    let path = corpus_dir().join("tier1_reference.json");
    let loaded = scenario::load_path(&path)
        .unwrap_or_else(|e| panic!("{} failed to load: {e:?}", path.display()));
    for (mode, golden) in [
        (ModeSpec::Abrr, "fig6_abrr_4aps"),
        (ModeSpec::Tbrr, "fig6_tbrr"),
    ] {
        let run = loaded
            .run(mode, true, Default::default())
            .unwrap_or_else(|e| panic!("tier1_reference failed to run: {e}"));
        let actual = fingerprint(golden, &run.sim, &run.spec);
        let gpath = golden_dir().join(format!("{golden}.txt"));
        let expected = std::fs::read_to_string(&gpath)
            .unwrap_or_else(|e| panic!("missing golden file {} ({e})", gpath.display()));
        assert_eq!(
            expected, actual,
            "tier1_reference.json under {mode:?} diverged from golden {golden}"
        );
    }
}
