//! The fuzzer: generate → run oracles → shrink failures to disk.
//!
//! `fuzz(seed, cases, ...)` derives one scenario per case from
//! `seed + i`, runs the full oracle stack on each, and — for any case
//! where an oracle trips — shrinks the scenario to a minimal gadget
//! and writes it as a JSON corpus file, ready to be committed as a
//! regression test. Every generated case declares the `wire` oracle,
//! so each one also runs in encode-decode-verify wire mode and must be
//! byte-identical (selections and obs traces) to struct mode. A fixed
//! `(seed, cases)` pair is fully deterministic, which is what the CI
//! smoke stage pins.

use crate::check::{run_checks, ScenarioReport};
use crate::compile;
use crate::gen::generate;
use crate::schema::ScenarioFile;
use crate::shrink::shrink;
use std::path::{Path, PathBuf};

/// Shrink-run budget per failing case.
pub const SHRINK_BUDGET: usize = 400;

/// One failing fuzz case.
#[derive(Debug)]
pub struct FuzzFailure {
    /// The seed that produced it (`seed + case index`).
    pub seed: u64,
    /// The oracle report of the *original* generated scenario.
    pub report: ScenarioReport,
    /// The shrunk minimal scenario.
    pub shrunk: ScenarioFile,
    /// Where the minimal scenario was written (when an output
    /// directory was given and the write succeeded).
    pub written_to: Option<PathBuf>,
}

/// The outcome of a fuzz run.
#[derive(Debug, Default)]
pub struct FuzzOutcome {
    /// Cases generated and run.
    pub cases: usize,
    /// Total checks executed across all cases.
    pub checks_run: usize,
    /// The failing cases, shrunk.
    pub failures: Vec<FuzzFailure>,
}

impl FuzzOutcome {
    /// No case tripped any oracle.
    pub fn all_green(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs `cases` generated scenarios starting at `seed`. Failures are
/// shrunk; when `shrink_dir` is given, each minimal scenario is
/// written there as `shrunk-<seed>.json`.
pub fn fuzz(
    seed: u64,
    cases: usize,
    shrink_dir: Option<&Path>,
    mut progress: impl FnMut(u64, &ScenarioReport),
) -> FuzzOutcome {
    let mut outcome = FuzzOutcome::default();
    for i in 0..cases {
        let case_seed = seed.wrapping_add(i as u64);
        let file = generate(case_seed);
        debug_assert!(
            crate::validate::validate(&file).is_empty(),
            "generator produced an invalid scenario for seed {case_seed}"
        );
        let loaded = compile::compile(file.clone());
        let report = run_checks(&loaded);
        outcome.cases += 1;
        outcome.checks_run += report.checks_run;
        progress(case_seed, &report);
        if report.all_green() {
            continue;
        }
        let shrunk = shrink(&file, SHRINK_BUDGET);
        let written_to = shrink_dir.and_then(|dir| {
            let path = dir.join(format!("shrunk-{case_seed}.json"));
            std::fs::create_dir_all(dir).ok()?;
            std::fs::write(&path, shrunk.to_json_pretty()).ok()?;
            Some(path)
        });
        outcome.failures.push(FuzzFailure {
            seed: case_seed,
            report,
            shrunk,
            written_to,
        });
    }
    outcome
}
