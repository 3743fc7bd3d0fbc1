//! Typed metrics registry: counters, gauges, fixed-bucket histograms.
//!
//! Keys are `&'static str` names plus an optional node label: every
//! metric is named by a literal, so registering one copies no string.
//! Handles are cheap `Arc`s into the registry's cells;
//! recording is a relaxed atomic op guarded by one relaxed load of the
//! global enable flag — effectively free when disabled.
//!
//! # Determinism contract
//!
//! Only quantities that are **identical under both engines** belong
//! here: counter increments and histogram records are commutative
//! (the parallel engine applies the same multiset of updates in a
//! different order), and gauges must be single-writer per
//! `(metric, node)` label (a node's callbacks always run on one thread
//! per epoch). Wall-clock anything goes in [`crate::profile`] instead.
//! `crates/bench/tests/engine_equivalence.rs` holds the line: sequential
//! and 8-worker runs must produce equal [`snapshot`]s.
//!
//! # Reset semantics
//!
//! [`reset`] zeroes every registered cell but keeps registrations, so
//! long-lived handles (including `static` ones in hot paths) stay
//! valid across runs.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns metric recording on or off (handles stay valid either way).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether metric recording is on (one relaxed load).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Exponential sim-tick (microsecond) bounds for latency histograms.
pub const LATENCY_BOUNDS_US: &[u64] = &[
    1, 4, 16, 64, 256, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576,
];

/// Power-of-two bounds for small cardinalities (batch sizes, candidate
/// counts, queue occupancy).
pub const COUNT_BOUNDS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128, 256];

struct HistogramCells {
    bounds: &'static [u64],
    /// One cell per bound plus the overflow bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

#[derive(Clone)]
enum Instrument {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistogramCells>),
}

/// A monotone counter handle.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1 when metrics are enabled.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `v` when metrics are enabled.
    #[inline]
    pub fn add(&self, v: u64) {
        if enabled() {
            self.0.fetch_add(v, Ordering::Relaxed);
        }
    }
}

/// A last-write-wins gauge handle. Must be single-writer per
/// `(metric, node)` label to stay deterministic (see module docs).
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Stores `v` when metrics are enabled.
    #[inline]
    pub fn set(&self, v: u64) {
        if enabled() {
            self.0.store(v, Ordering::Relaxed);
        }
    }
}

/// A fixed-bucket histogram handle.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramCells>);

impl Histogram {
    /// Records `v` when metrics are enabled.
    #[inline]
    pub fn record(&self, v: u64) {
        if !enabled() {
            return;
        }
        let cells = &*self.0;
        let idx = cells
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(cells.bounds.len());
        cells.buckets[idx].fetch_add(1, Ordering::Relaxed);
        cells.count.fetch_add(1, Ordering::Relaxed);
        cells.sum.fetch_add(v, Ordering::Relaxed);
    }
}

/// A metric key: name plus optional node id.
type MetricKey = (&'static str, Option<u32>);

/// The registry, locked. Every critical section leaves the map valid
/// (it inserts whole entries or reads atomics), so a panic elsewhere
/// in a thread that held the lock leaves nothing to repair: recover
/// the guard rather than disable metrics for the rest of the process.
fn registry() -> MutexGuard<'static, BTreeMap<MetricKey, Instrument>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<MetricKey, Instrument>>> = OnceLock::new();
    REGISTRY
        .get_or_init(|| Mutex::new(BTreeMap::new()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// The instrument registered under `(name, node)`, registering `new()`
/// first if there is none. The lock is released on return, so a
/// caller's type mismatch panics without holding it.
fn register(name: &'static str, node: Option<u32>, new: impl FnOnce() -> Instrument) -> Instrument {
    registry().entry((name, node)).or_insert_with(new).clone()
}

/// A name is registered with one instrument type; asking for it as
/// another is a bug at the call site.
fn type_mismatch(name: &str) -> ! {
    // Invariant: each metric name is registered with one instrument
    // type across the workspace.
    panic!("metric `{name}` already registered with another type")
}

/// Registers (or retrieves) the counter `name` for `node`.
pub fn counter(name: &'static str, node: Option<u32>) -> Counter {
    match register(name, node, || Instrument::Counter(Arc::default())) {
        Instrument::Counter(c) => Counter(c),
        _ => type_mismatch(name),
    }
}

/// Registers (or retrieves) the gauge `name` for `node`.
pub fn gauge(name: &'static str, node: Option<u32>) -> Gauge {
    match register(name, node, || Instrument::Gauge(Arc::default())) {
        Instrument::Gauge(g) => Gauge(g),
        _ => type_mismatch(name),
    }
}

/// Registers (or retrieves) the histogram `name` for `node`, with
/// `bounds` as its upper bucket bounds (plus an implicit overflow
/// bucket).
pub fn histogram(name: &'static str, node: Option<u32>, bounds: &'static [u64]) -> Histogram {
    let inst = register(name, node, || {
        Instrument::Histogram(Arc::new(HistogramCells {
            bounds,
            buckets: (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    });
    match inst {
        Instrument::Histogram(h) => {
            // Like the type, a histogram's bounds are fixed by its
            // first registration; other bounds are a call-site bug.
            assert_eq!(
                h.bounds, bounds,
                "histogram `{name}` already registered with other bounds"
            );
            Histogram(h)
        }
        _ => type_mismatch(name),
    }
}

/// The value of one metric at snapshot time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricValue {
    /// Counter total.
    Counter(u64),
    /// Gauge value.
    Gauge(u64),
    /// Histogram state.
    Histogram {
        /// Upper bucket bounds.
        bounds: Vec<u64>,
        /// Per-bucket counts (`bounds.len() + 1`, last = overflow).
        buckets: Vec<u64>,
        /// Recorded sample count.
        count: u64,
        /// Sum of recorded values.
        sum: u64,
    },
}

/// An ordered, resolved snapshot of every registered metric — the
/// comparison unit of the engine-equivalence invariant test.
pub type MetricsSnapshot = BTreeMap<(String, Option<u32>), MetricValue>;

/// Snapshots every registered metric with names resolved.
pub fn snapshot() -> MetricsSnapshot {
    registry()
        .iter()
        .map(|(&(name, node), inst)| {
            let value = match inst {
                Instrument::Counter(c) => MetricValue::Counter(c.load(Ordering::Relaxed)),
                Instrument::Gauge(g) => MetricValue::Gauge(g.load(Ordering::Relaxed)),
                Instrument::Histogram(h) => MetricValue::Histogram {
                    bounds: h.bounds.to_vec(),
                    buckets: h
                        .buckets
                        .iter()
                        .map(|b| b.load(Ordering::Relaxed))
                        .collect(),
                    count: h.count.load(Ordering::Relaxed),
                    sum: h.sum.load(Ordering::Relaxed),
                },
            };
            ((name.to_string(), node), value)
        })
        .collect()
}

/// Zeroes every registered cell, keeping registrations (and therefore
/// all live handles) valid. Does not change the enable flag.
pub fn reset() {
    for inst in registry().values() {
        match inst {
            Instrument::Counter(c) | Instrument::Gauge(c) => c.store(0, Ordering::Relaxed),
            Instrument::Histogram(h) => {
                for b in &h.buckets {
                    b.store(0, Ordering::Relaxed);
                }
                h.count.store(0, Ordering::Relaxed);
                h.sum.store(0, Ordering::Relaxed);
            }
        }
    }
}

/// Renders a snapshot as aligned `name[node] value` lines, summing
/// per-node series into a `(all)` row — the `obs_report` body.
pub fn render_snapshot(snap: &MetricsSnapshot) -> String {
    use std::fmt::Write as _;
    let mut totals: BTreeMap<&str, (u64, bool)> = BTreeMap::new();
    for ((name, _), value) in snap {
        let v = match value {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => *v,
            MetricValue::Histogram { count, .. } => *count,
        };
        let entry = totals.entry(name.as_str()).or_insert((0, false));
        entry.0 += v;
        entry.1 |= matches!(value, MetricValue::Histogram { .. });
    }
    let width = totals.keys().map(|n| n.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (name, (total, is_hist)) in totals {
        let unit = if is_hist { " samples" } else { "" };
        // Invariant: writing to a `String` cannot fail.
        writeln!(out, "  {name:<width$}  {total}{unit}").expect("write to String");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_is_inert() {
        let _g = guard();
        set_enabled(false);
        let c = counter("obs.test.inert", None);
        c.inc();
        c.add(5);
        let h = histogram("obs.test.inert_h", None, COUNT_BOUNDS);
        h.record(3);
        let snap = snapshot();
        assert_eq!(
            snap.get(&("obs.test.inert".to_string(), None)),
            Some(&MetricValue::Counter(0))
        );
        match snap.get(&("obs.test.inert_h".to_string(), None)) {
            Some(MetricValue::Histogram { count, .. }) => assert_eq!(*count, 0),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn counters_gauges_histograms_record() {
        let _g = guard();
        set_enabled(true);
        let c = counter("obs.test.c", Some(7));
        c.inc();
        c.add(2);
        let g = gauge("obs.test.g", Some(7));
        g.set(41);
        g.set(42);
        let h = histogram("obs.test.h", None, &[10, 100]);
        for v in [1, 10, 11, 1000] {
            h.record(v);
        }
        let snap = snapshot();
        set_enabled(false);
        assert_eq!(
            snap.get(&("obs.test.c".to_string(), Some(7))),
            Some(&MetricValue::Counter(3))
        );
        assert_eq!(
            snap.get(&("obs.test.g".to_string(), Some(7))),
            Some(&MetricValue::Gauge(42))
        );
        assert_eq!(
            snap.get(&("obs.test.h".to_string(), None)),
            Some(&MetricValue::Histogram {
                bounds: vec![10, 100],
                buckets: vec![2, 1, 1],
                count: 4,
                sum: 1022,
            })
        );
    }

    #[test]
    fn reset_keeps_handles_valid() {
        let _g = guard();
        set_enabled(true);
        let c = counter("obs.test.reset", None);
        c.inc();
        reset();
        c.inc();
        let snap = snapshot();
        set_enabled(false);
        assert_eq!(
            snap.get(&("obs.test.reset".to_string(), None)),
            Some(&MetricValue::Counter(1))
        );
        // Re-registration under the same name returns the same cell.
        let c2 = counter("obs.test.reset", None);
        set_enabled(true);
        c2.inc();
        set_enabled(false);
        match snapshot().get(&("obs.test.reset".to_string(), None)) {
            Some(MetricValue::Counter(v)) => assert_eq!(*v, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn a_caught_type_mismatch_leaves_the_registry_usable() {
        let _g = guard();
        counter("obs.test.mismatch", None);
        let caught = std::panic::catch_unwind(|| gauge("obs.test.mismatch", None));
        assert!(
            caught.is_err(),
            "a counter name asked for as a gauge panics"
        );
        counter("obs.test.after_mismatch", None);
        let snap = snapshot();
        assert!(snap.contains_key(&("obs.test.after_mismatch".to_string(), None)));
    }

    #[test]
    fn parallel_updates_commute() {
        let _g = guard();
        set_enabled(true);
        let c = counter("obs.test.par", None);
        let h = histogram("obs.test.par_h", None, COUNT_BOUNDS);
        reset();
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let c = c.clone();
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..100 {
                        c.inc();
                        h.record(t * 100 + i);
                    }
                });
            }
        });
        let snap = snapshot();
        set_enabled(false);
        assert_eq!(
            snap.get(&("obs.test.par".to_string(), None)),
            Some(&MetricValue::Counter(800))
        );
        match snap.get(&("obs.test.par_h".to_string(), None)) {
            Some(MetricValue::Histogram { count, sum, .. }) => {
                assert_eq!(*count, 800);
                assert_eq!(*sum, (0..800u64).sum::<u64>());
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
