//! `repro` end to end at its front door: bad flag values, the artefact
//! table `scripts/results.sh` runs, and unknown experiments.

use std::collections::BTreeMap;
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro")
}

/// Each value used to hang, print `NaN` rows, fit to nothing, run
/// without churn or panic. Every one is a flag error now: exit 2 with
/// the flag named, before a run starts.
#[test]
fn bad_values_exit_2_naming_the_flag() {
    let cases: &[(&[&str], &str)] = &[
        (&["show_rib", "--router", "99999"], "--router"),
        (&["resilience", "--slice-ms", "0"], "--slice-ms"),
        (&["convergence", "--probes", "0"], "--probes"),
        (&["event_trace", "--events", "0"], "--events"),
        (&["table_updates", "--minutes", "0"], "--minutes"),
        (&["fig3", "--samples", "0"], "--samples"),
        (&["scale", "--rate", "-5"], "--rate"),
        (&["fig7", "--rate", "nan"], "--rate"),
    ];
    for (args, flag) in cases {
        let out = repro(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.lines().next().is_some_and(|l| l.contains(flag)),
            "{args:?}: the error names no {flag}: {stderr}"
        );
    }
}

/// `--wire` takes `off` or `bytes`; any other mode, `verify` included,
/// exits 2 with the flag list before a run starts.
#[test]
fn wire_verify_exits_2_with_the_flag_list() {
    let out = repro(&["fig3", "--wire", "verify"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    let first = stderr.lines().next().unwrap_or_default();
    assert!(
        first.contains("`verify`") && first.contains("off | bytes"),
        "{stderr}"
    );
    assert!(
        stderr.contains("flags:") && stderr.contains("--wire <MODE>"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "a run started: {stderr}");
}

/// `repro list` is the one table of published artefacts: it must name
/// every file in `results/`, once.
#[test]
fn list_names_every_results_file_once() {
    let out = repro(&["list"]);
    assert!(out.status.success());
    let mut rows: BTreeMap<String, usize> = BTreeMap::new();
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let artefact = line.split_whitespace().next().expect("artefact column");
        *rows.entry(artefact.to_string()).or_default() += 1;
    }
    let results = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    let files: Vec<String> = std::fs::read_dir(results)
        .expect("read results/")
        .map(|e| e.expect("results/ entry"))
        .filter(|e| e.path().is_file())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    assert!(!files.is_empty());
    for file in &files {
        assert_eq!(rows.get(file), Some(&1), "results/{file} in `repro list`");
    }
    assert_eq!(rows.len(), files.len(), "rows for missing files: {rows:?}");
}

#[test]
fn unknown_experiment_exits_2_and_lists_the_experiments() {
    let out = repro(&["fig8"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown experiment `fig8`"), "{stderr}");
    for name in ["fig3", "fig7", "resilience", "scale", "scenario"] {
        assert!(stderr.contains(&format!("  {name} ")), "{name}: {stderr}");
    }
}
