//! `repro scorecard` end to end: it reproduces the committed
//! `results/scorecard.txt` from the other artefacts, and on a missing
//! artefact or a garbled number it exits 1 naming the file and the
//! locator, without panicking.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn results() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

fn scorecard_in(dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("scorecard")
        .current_dir(dir)
        .output()
        .expect("run repro scorecard")
}

#[test]
fn the_committed_scorecard_is_what_the_artefacts_compute() {
    let out = scorecard_in(&results().join(".."));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let committed = std::fs::read_to_string(results().join("scorecard.txt")).expect("read");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        committed,
        "results/scorecard.txt is stale: rerun scripts/results.sh"
    );
}

/// A temp dir holding a copy of `results/` with `edit` applied to it,
/// removed on drop.
struct Copy(PathBuf);

impl Copy {
    fn new(name: &str, edit: impl FnOnce(&Path)) -> Copy {
        let dir =
            std::env::temp_dir().join(format!("abrr-scorecard-{}-{name}", std::process::id()));
        let copy = dir.join("results");
        std::fs::create_dir_all(&copy).expect("create temp results/");
        for entry in std::fs::read_dir(results()).expect("read results/") {
            let path = entry.expect("results/ entry").path();
            if path.is_file() {
                std::fs::copy(&path, copy.join(path.file_name().expect("name"))).expect("copy");
            }
        }
        edit(&copy);
        Copy(dir)
    }
}

impl Drop for Copy {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn assert_fails_naming(out: &Output, names: &[&str]) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.stdout.is_empty(), "a scorecard was printed: {stderr}");
    for name in names {
        assert!(stderr.contains(name), "no `{name}` in: {stderr}");
    }
}

#[test]
fn a_deleted_artefact_exits_1_naming_it_and_its_locator() {
    let copy = Copy::new("deleted", |r| {
        std::fs::remove_file(r.join("fig3.txt")).expect("delete fig3.txt")
    });
    assert_fails_naming(
        &scorecard_in(&copy.0),
        &[
            "results/fig3.txt",
            "`measured avg #BAL over peer prefixes with all peers:` number 1",
        ],
    );
}

#[test]
fn a_garbled_number_exits_1_naming_its_locator() {
    let copy = Copy::new("garbled", |r| {
        let path = r.join("table_updates.txt");
        let text = std::fs::read_to_string(&path).expect("read table_updates.txt");
        let line = text
            .lines()
            .find(|l| l.starts_with("TRR/ARR transmitted-update ratio"))
            .expect("the ratio line");
        let garbled = line.replacen('.', ".z", 1);
        std::fs::write(&path, text.replace(line, &garbled)).expect("write");
    });
    assert_fails_naming(
        &scorecard_in(&copy.0),
        &[
            "results/table_updates.txt",
            "`TRR/ARR transmitted-update ratio` number 1",
            "is not a number",
        ],
    );
}
