//! Corpus golden regression.
//!
//! The corpus under `examples/scenarios/` is the only definition of the
//! §2.3 gadgets and the small reference network. This suite pins what
//! they compute: each gadget run must reproduce its golden fingerprint
//! under `tests/golden/` in every converging mode — the ABRR goldens
//! `scenario_<stem>.txt`, the full-mesh and multipath-TBRR goldens
//! `scenario_<stem>_<mode>.txt` (all three were blessed while the
//! gadgets still had hand-written Rust twins, and matched them).
//! `tier1_reference.json` is the network of the `fig6_*` goldens, which
//! `golden_regression.rs` runs (`abrr_bench::fingerprint::scenarios`).
//!
//! Re-bless (after an intentional behavior change only):
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test -p abrr-bench --test scenario_golden
//! ```

use abrr::Mode;
use abrr_bench::fingerprint::{fingerprint, golden_dir};
use scenario::schema::mode_keyword;

/// The gadget files with goldens, by stem.
const GADGETS: &[&str] = &["med_gadget", "topology_gadget", "small_reference"];

/// Modes under which every gadget converges (single-path TBRR
/// is excluded: `med_gadget` oscillates forever there by design, so
/// its final state depends on the event budget, not the protocol).
const MODES: &[Mode] = &[Mode::FullMesh, Mode::Abrr, Mode::Tbrr { multipath: true }];

fn dsl_fingerprint(stem: &str, name: &str, mode: Mode) -> String {
    let loaded =
        scenario::load_corpus(stem).unwrap_or_else(|e| panic!("{stem}.json failed to load: {e:?}"));
    let run = loaded
        .run(mode.clone(), Default::default())
        .unwrap_or_else(|e| panic!("{stem} failed to run: {e}"));
    assert!(
        run.outcome.quiesced,
        "{stem} did not quiesce under {mode:?}"
    );
    fingerprint(name, &run.sim, &run.spec)
}

/// The gadget fingerprint name for one mode: the bare stem under ABRR
/// (the goldens that predate the other modes), `<stem>_<mode>` else.
fn golden_name(stem: &str, mode: &Mode) -> String {
    match mode {
        Mode::Abrr => stem.to_string(),
        _ => format!("{stem}_{}", mode_keyword(mode)),
    }
}

/// The DSL gadget runs reproduce the golden fingerprints under
/// `tests/golden/scenario_<stem>[_<mode>].txt`, one per converging
/// mode.
#[test]
fn dsl_gadgets_match_golden() {
    let dir = golden_dir();
    let bless = std::env::var("GOLDEN_BLESS").is_ok();
    if bless {
        std::fs::create_dir_all(&dir).expect("create golden dir");
    }
    for &stem in GADGETS {
        for mode in MODES {
            let name = golden_name(stem, mode);
            let path = dir.join(format!("scenario_{name}.txt"));
            let actual = dsl_fingerprint(stem, &name, mode.clone());
            if bless {
                std::fs::write(&path, &actual).expect("write golden");
                eprintln!("blessed {}", path.display());
                continue;
            }
            let expected = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("missing golden file {} ({e})", path.display()));
            assert_eq!(
                expected, actual,
                "DSL scenario {stem} diverged from its golden fingerprint under {mode:?}"
            );
        }
    }
}
