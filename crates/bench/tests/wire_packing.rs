//! Update-group packing is visible in any metrics snapshot
//! (DESIGN.md §14): over bytes, `core.wire.encoded` counts bursts put
//! on sessions and `core.wire.images_encoded` the encodes behind them.
//! Every send is one burst, so the first equals the fleet's
//! `UpdateCounters::transmitted`. On a scenario with fan-out the second
//! is below the first (by the sends that went out at once: the scenario
//! paces with MRAI, and a deferred copy is encoded when its timer
//! flushes it).
//!
//! One `#[test]`: the obs metrics registry is global state, and this
//! file is its own process.

use abrr_bench::fingerprint::scenarios;
use netsim::{RunConfig, WireMode};

/// One bytes-mode run of the golden scenario named `name`: the fleet
/// totals of (`transmitted`, `core.wire.encoded`,
/// `core.wire.images_encoded`). `transmitted` is summed from the
/// fingerprint's per-node `tx=` fields.
fn totals(name: &str) -> (u64, u64, u64) {
    let scn = scenarios()
        .into_iter()
        .find(|s| s.name == name)
        .expect("golden scenario");
    obs::metrics::reset();
    obs::metrics::set_enabled(true);
    let fp = scn.run(RunConfig {
        wire: WireMode::Bytes,
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
    let transmitted = fp
        .split_whitespace()
        .filter_map(|field| field.strip_prefix("tx="))
        .map(|n| n.parse::<u64>().expect("tx= is a count"))
        .sum();
    (
        transmitted,
        total("core.wire.encoded"),
        total("core.wire.images_encoded"),
    )
}

#[test]
fn images_encoded_is_below_sends_where_fan_out_shares() {
    let (transmitted, sends, images) = totals("resilience_arr_kill");
    assert!(transmitted > 0, "the scenario sent nothing");
    assert_eq!(sends, transmitted, "every send is encoded once");
    assert!(images > 0, "bytes mode encoded nothing");
    assert!(
        images < sends,
        "update-group packing shared nothing: {images} images for {sends} sends"
    );
}
