//! pcap determinism golden (DESIGN.md §14).
//!
//! The pcap sink renders session traffic with fully synthetic,
//! deterministic framing: timestamps are simulated microseconds,
//! addresses/MACs derive from router ids, and per-flow TCP sequence
//! numbers are assigned after the global (t, phase, seq, k) sort. The
//! contract pinned here: dumping the small-reference scenario in
//! encode-decode-verify wire mode produces a **byte-identical** pcap
//! file across repeated runs and across engines, equal to the blessed
//! capture under `tests/golden/`.
//!
//! Re-bless (after an intentional wire/format change only):
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test -p abrr-bench --test pcap_golden
//! ```
//!
//! One `#[test]` because the pcap sink is global state.

use abrr::scenarios::small_reference;
use abrr::spec::Mode;
use abrr_bench::fingerprint::golden_dir;
use netsim::{Engine, RunConfig, RunLimits, Time, WireMode};

/// Runs the reference scenario in verify wire mode with the pcap sink
/// enabled and returns the rendered capture file.
fn capture(engine: Engine) -> Vec<u8> {
    obs::pcap::reset();
    obs::pcap::enable();
    let cfg = RunConfig {
        engine,
        wire: WireMode::Verify,
        limits: RunLimits {
            max_events: 1_000_000,
            max_time: Time::MAX,
        },
    };
    let (_, outcome) = small_reference().run(Mode::Abrr, cfg);
    assert!(
        outcome.quiesced,
        "small_reference did not quiesce on {}",
        engine.name()
    );
    obs::trace::flush_local();
    let bytes = obs::pcap::drain_file();
    obs::pcap::reset();
    bytes
}

#[test]
fn pcap_dump_is_byte_identical_across_runs_engines_and_golden() {
    let reference = capture(Engine::Seq);
    assert!(
        reference.len() > 24,
        "capture holds only the pcap global header — no packets recorded"
    );
    for engine in [Engine::Seq, Engine::Epoch(2), Engine::Sharded(2)] {
        let again = capture(engine);
        assert_eq!(
            again,
            reference,
            "pcap bytes diverged on a repeat run under {}",
            engine.name()
        );
    }

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
