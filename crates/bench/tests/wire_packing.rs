//! Update-group packing is visible in any metrics snapshot
//! (DESIGN.md §14): over bytes, `core.wire.encoded` counts bursts put
//! on sessions and `core.wire.images_encoded` the encodes behind them.
//! On a scenario with fan-out the second is below the first (by the
//! sends that went out at once: the scenario paces with MRAI, and a
//! deferred copy is encoded when its timer flushes it); in verify
//! mode, where every send is round-tripped, they are equal.
//!
//! One `#[test]`: the obs metrics registry is global state, and this
//! file is its own process.

use abrr_bench::fingerprint::scenarios;
use netsim::{RunConfig, WireMode};

/// Fleet totals of (`core.wire.encoded`, `core.wire.images_encoded`)
/// for one run of the scenario named `name`.
fn totals(name: &str, wire: WireMode) -> (u64, u64) {
    let scn = scenarios()
        .into_iter()
        .find(|s| s.name == name)
        .expect("golden scenario");
    obs::metrics::reset();
    obs::metrics::set_enabled(true);
    scn.run(RunConfig {
        wire,
        ..Default::default()
    });
    let snap = obs::metrics::snapshot();
    obs::metrics::set_enabled(false);
    let total = |metric: &str| {
        snap.iter()
            .filter(|((n, _), _)| n == metric)
            .map(|(_, v)| match v {
                obs::MetricValue::Counter(c) => *c,
                other => panic!("{metric} is not a counter: {other:?}"),
            })
            .sum()
    };
    (
        total("core.wire.encoded"),
        total("core.wire.images_encoded"),
    )
}

#[test]
fn images_encoded_is_below_sends_where_fan_out_shares() {
    let (sends, images) = totals("resilience_arr_kill", WireMode::Bytes);
    assert!(images > 0, "bytes mode encoded nothing");
    assert!(
        images < sends,
        "update-group packing shared nothing: {images} images for {sends} sends"
    );
    let (verify_sends, verify_images) = totals("resilience_arr_kill", WireMode::Verify);
    assert_eq!(verify_sends, sends, "same sends in either wire mode");
    assert_eq!(verify_images, verify_sends, "verify round-trips every send");
}
