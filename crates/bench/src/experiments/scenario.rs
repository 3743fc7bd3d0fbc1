//! Scenario corpus runner and fuzzer driver.
//!
//! Three stages, each optional:
//!
//!   * **corpus** (default): loads every `*.json` under `--dir` and
//!     runs its oracle checks, printing one verdict row per scenario.
//!     An `expect_verdict: fail` gadget passes exactly when an oracle
//!     catches the seeded violation.
//!   * **fuzz** (`--fuzz N`): runs N seeded random scenarios through
//!     the same oracle stack; any failure is shrunk to a minimal gadget
//!     and written under `--shrink-dir`, ready to be committed to the
//!     corpus as a regression.
//!   * **overlays** (`--overlays PATH`): writes the iBGP overlay
//!     session-count comparison (paper §4.2): full mesh vs TBRR vs
//!     ABRR at tier-1 scale, plus the constrained-connectivity gadget
//!     where the same trimmed overlay blackholes TBRR but leaves ABRR
//!     correct.
//!
//! Exit status is non-zero if any corpus scenario misses its expected
//! verdict or any fuzz case fails, so CI can gate on it.

use super::Def;
use crate::cli::{flag, SEED};
use crate::pipeline::{col, lcol, t, u, Experiment, Table};
use abrr::Mode;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use workload::specs::{self, SpecOptions};
use workload::{Tier1Config, Tier1Model};

pub const DEF: Def = Def {
    name: "scenario",
    about: "scenario corpus",
    flags: &[
        flag("dir", "D", "corpus directory").or("examples/scenarios"),
        flag("fuzz", "N", "generated scenarios to run after the corpus").or("0"),
        SEED.or("2870485009"),
        flag("shrink-dir", "D", "directory for shrunk failing scenarios").or("results/shrunk"),
        flag(
            "overlays",
            "PATH",
            "write the overlay session-count table to PATH",
        ),
        flag("no-corpus", "", "skip the corpus stage"),
    ],
    base: Tier1Config::default,
    artefacts: &[("table_overlays.txt", "--no-corpus --overlays @OUT@")],
    run,
};

/// Sessions a spec configures, via a throwaway sim.
fn sessions(spec: abrr::NetworkSpec) -> u64 {
    abrr::build_sim(Arc::new(spec)).num_sessions() as u64
}

fn corpus_stage(dir: &Path) -> bool {
    let mut paths: Vec<PathBuf> = match std::fs::read_dir(dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("json"))
            .collect(),
        Err(e) => {
            eprintln!("scenario: cannot read corpus dir {}: {e}", dir.display());
            return false;
        }
    };
    paths.sort();
    if paths.is_empty() {
        eprintln!("scenario: no *.json scenarios in {}", dir.display());
        return false;
    }
    let table = Table::new(vec![
        lcol("scenario", 26),
        col("checks", 6),
        lcol("verdict", 8),
        lcol("detail", 44),
    ]);
    table.header();
    let mut ok = true;
    for path in &paths {
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("?")
            .to_string();
        let loaded = match scenario::load_path(path) {
            Ok(l) => l,
            Err(errs) => {
                ok = false;
                table.row(&[t(name), u(0), t("ERROR"), t(format!("{}", errs[0]))]);
                continue;
            }
        };
        let report = scenario::run_checks(&loaded);
        let verdict_ok = report.verdict_ok();
        ok &= verdict_ok;
        let verdict = match (verdict_ok, report.expect_fail) {
            (true, false) => "pass",
            (true, true) => "xfail",
            (false, _) => "FAIL",
        };
        let detail = match report.failures.first() {
            Some(f) if report.expect_fail && verdict_ok => format!("caught: {f}"),
            Some(f) => format!("{f}"),
            None if report.expect_fail => "no oracle tripped".to_string(),
            None => String::new(),
        };
        table.row(&[t(name), u(report.checks_run as u64), t(verdict), t(detail)]);
    }
    println!(
        "\n# corpus: {} scenarios, {}",
        paths.len(),
        if ok { "all verdicts ok" } else { "FAILURES" }
    );
    ok
}

fn fuzz_stage(seed: u64, cases: usize, shrink_dir: &Path) -> bool {
    println!("\n# fuzz: {cases} cases from seed {seed}");
    let outcome = scenario::fuzz(seed, cases, Some(shrink_dir), |s, rep| {
        if !rep.all_green() {
            println!("  seed {s}: {} oracle failure(s)", rep.failures.len());
        }
    });
    for fail in &outcome.failures {
        println!(
            "  seed {}: first failure: {}",
            fail.seed,
            fail.report
                .failures
                .first()
                .map(|f| f.to_string())
                .unwrap_or_default()
        );
        if let Some(p) = &fail.written_to {
            println!(
                "  seed {}: shrunk scenario written to {}",
                fail.seed,
                p.display()
            );
        }
    }
    println!(
        "# fuzz: {} cases, {} checks, {}",
        outcome.cases,
        outcome.checks_run,
        if outcome.all_green() {
            "all green".to_string()
        } else {
            format!("{} FAILURES", outcome.failures.len())
        }
    );
    outcome.all_green()
}

/// §4.2 overlay comparison: configured iBGP session counts at tier-1
/// scale, plus the constrained-connectivity gadget where the trimmed
/// overlay breaks TBRR but not ABRR. A gadget that does not load is an
/// error, and then nothing is written.
fn overlays_stage(path: &str, corpus_dir: &Path) -> Result<(), String> {
    let gadget_path = corpus_dir.join("constrained_connectivity.json");
    let gadget = scenario::load_path(&gadget_path).map_err(|errs| {
        let errs: Vec<String> = errs.iter().map(|e| e.to_string()).collect();
        format!("{}: {}", gadget_path.display(), errs.join("; "))
    })?;
    // Session counts are workload-independent; a tiny prefix table
    // keeps the model generation instant.
    let model = Tier1Model::generate(Tier1Config {
        n_prefixes: 10,
        ..Tier1Config::default()
    });
    let opts = SpecOptions::default();
    let line = |label: &str, n: u64| format!("{label:<28} {n:>10}\n");
    let mut out = format!(
        "# Overlay session counts — ABRR vs TBRR vs full mesh (§4.2)\n\
         # tier-1 model: {} routers, 13 PoPs x 8\n\n{:<28} {:>10}\n",
        model.routers.len(),
        "overlay",
        "sessions"
    );
    out += &line("full mesh", sessions(specs::full_mesh_spec(&model, &opts)));
    out += &line(
        "TBRR 2 TRRs/cluster",
        sessions(specs::tbrr_spec(&model, 2, false, &opts)),
    );
    for aps in [1usize, 2, 4, 8, 13] {
        let n = sessions(specs::abrr_spec(&model, aps, 2, &opts));
        out += &line(&format!("ABRR #APs={aps} 2 ARRs/AP"), n);
    }
    // The gadget: identical link_down trims in both planes.
    let trims = gadget.file().faults.len() as u64;
    let tbrr = sessions(gadget.spec(Mode::Tbrr { multipath: false }));
    let abrr = sessions(gadget.spec(Mode::Abrr));
    out += &format!(
        "\n# constrained-connectivity gadget (same {trims} session(s) trimmed in both planes)\n"
    );
    out += &line("gadget TBRR configured", tbrr);
    out += &line("gadget TBRR after trim", tbrr - trims);
    out += &line("gadget ABRR configured", abrr);
    out += &line("gadget ABRR after trim", abrr - trims);
    out +=
        "# verdict (see corpus): trimmed TBRR blackholes cluster 3; trimmed ABRR stays correct\n";
    if let Some(parent) = Path::new(path).parent() {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
    }
    std::fs::write(path, &out).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("\n# overlays table written to {path}");
    print!("{out}");
    Ok(())
}

fn run(exp: &Experiment) {
    let args = &exp.args;
    let dir: PathBuf = args.get("dir");
    let cases: usize = args.get("fuzz");
    let seed: u64 = args.get("seed");
    let shrink_dir: PathBuf = args.get("shrink-dir");
    let overlays: Option<String> = args.get_opt("overlays");
    exp.header("declarative scenario DSL: corpus verdicts, seeded fuzzer, overlay comparison");
    let mut ok = true;
    if !args.flag("no-corpus") {
        ok &= corpus_stage(&dir);
    }
    if cases > 0 {
        ok &= fuzz_stage(seed, cases, &shrink_dir);
    }
    if let Some(path) = overlays {
        if let Err(e) = overlays_stage(&path, &dir) {
            eprintln!("scenario: overlays stage failed: {e}");
            ok = false;
        }
    }
    if !ok {
        std::process::exit(1);
    }
}
