//! pcap determinism golden (DESIGN.md §14).
//!
//! The pcap sink renders session traffic with fully synthetic,
//! deterministic framing: timestamps are simulated microseconds,
//! addresses/MACs derive from router ids, and per-flow TCP sequence
//! numbers are assigned after the global (t, phase, seq, k) sort. The
//! contract pinned here: dumping the small-reference scenario
//! (`examples/scenarios/small_reference.json`) under ABRR in
//! encode-decode-verify wire mode produces a **byte-identical** pcap
//! file across repeated runs, equal to the blessed capture under
//! `tests/golden/`. The window engine's captures are held to the
//! sequential loop's by `engine_equivalence.rs` (V4).
//!
//! Re-bless (after an intentional wire/format change only):
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test -p abrr-bench --test pcap_golden
//! ```
//!
//! One `#[test]` because the pcap sink is global state.

use abrr::Mode;
use abrr_bench::fingerprint::golden_dir;
use netsim::{RunConfig, RunLimits, Time, WireMode};

/// Runs the reference scenario in verify wire mode with the pcap sink
/// enabled and returns the rendered capture file.
fn capture() -> Vec<u8> {
    obs::pcap::reset();
    obs::pcap::enable();
    let cfg = RunConfig {
        wire: WireMode::Verify,
        limits: RunLimits {
            max_events: 1_000_000,
            max_time: Time::MAX,
        },
    };
    let run = scenario::load_corpus("small_reference")
        .expect("small_reference.json loads")
        .run(Mode::Abrr, true, cfg)
        .expect("small_reference runs");
    assert!(run.outcome.quiesced, "small_reference did not quiesce");
    obs::trace::flush_local();
    let bytes = obs::pcap::drain_file();
    obs::pcap::reset();
    bytes
}

#[test]
fn pcap_dump_is_byte_identical_across_runs_and_golden() {
    let reference = capture();
    assert!(
        reference.len() > 24,
        "capture holds only the pcap global header — no packets recorded"
    );
    assert_eq!(capture(), reference, "pcap bytes diverged on a repeat run");

    let path = golden_dir().join("wire_small_reference.pcap");
    if std::env::var("GOLDEN_BLESS").is_ok() {
        std::fs::create_dir_all(golden_dir()).expect("create golden dir");
        std::fs::write(&path, &reference).expect("write golden pcap");
        eprintln!("blessed {}", path.display());
        return;
    }
    let expected =
        std::fs::read(&path).unwrap_or_else(|e| panic!("missing golden {} ({e})", path.display()));
    assert_eq!(
        reference,
        expected,
        "pcap capture diverged from the blessed golden ({} vs {} bytes); \
         re-bless with GOLDEN_BLESS=1 only if the wire format intentionally changed",
        reference.len(),
        expected.len()
    );
}
