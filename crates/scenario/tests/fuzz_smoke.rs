//! Fixed-seed fuzzer smoke: every generated scenario must pass the
//! full oracle stack (the generator only emits recovery-guaranteed
//! fault schedules, so ABRR has no excuse). Every generated case
//! declares `wire`, so each one also compares struct mode with
//! encode-decode-verify wire mode. One `#[test]` because that oracle
//! captures the global obs trace stream.

use scenario::fuzz;

#[test]
fn fixed_seed_sweep_is_green() {
    let outcome = fuzz(0xAB88_2011, 25, None, |_seed, _report| {});
    assert_eq!(outcome.cases, 25);
    assert!(outcome.checks_run >= 25);
    assert!(
        outcome.all_green(),
        "fuzzer found failures: {:#?}",
        outcome
            .failures
            .iter()
            .map(|f| (f.seed, &f.report.failures))
            .collect::<Vec<_>>()
    );
}
