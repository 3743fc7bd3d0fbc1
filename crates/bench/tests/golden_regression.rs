//! Cross-refactor golden-fingerprint regression.
//!
//! The files under `tests/golden/` (workspace root) were recorded from
//! the pre-role-split `BgpNode` — the monolithic engine — and gate the
//! roles/ decomposition: the refactored engine must reproduce every
//! per-node RIB size, Loc-RIB hash, and update counter byte-for-byte
//! under the sequential engine (`engine_equivalence.rs` holds the
//! parallel engines to the same files).
//!
//! Re-bless (after an intentional behavior change only):
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test -p abrr-bench --test golden_regression
//! ```

use abrr_bench::fingerprint::{golden_dir, scenarios};

fn diff_head(expected: &str, actual: &str) -> String {
    for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
        if e != a {
            return format!(
                "first difference at line {}:\n  golden: {e}\n  actual: {a}",
                i + 1
            );
        }
    }
    format!(
        "line counts differ: golden {} vs actual {}",
        expected.lines().count(),
        actual.lines().count()
    )
}

#[test]
fn fingerprints_match_golden() {
    let dir = golden_dir();
    let bless = std::env::var("GOLDEN_BLESS").is_ok();
    if bless {
        std::fs::create_dir_all(&dir).expect("create golden dir");
    }
    let mut failures = Vec::new();
    for scn in scenarios() {
        let path = dir.join(format!("{}.txt", scn.name));
        let actual = scn.run(Default::default());
        if bless {
            std::fs::write(&path, &actual).expect("write golden");
            eprintln!("blessed {}", path.display());
            continue;
        }
        let expected = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden file {} ({e})", path.display()));
        if expected != actual {
            failures.push(format!(
                "scenario {} diverged from pre-refactor golden ({})",
                scn.name,
                diff_head(&expected, &actual)
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
