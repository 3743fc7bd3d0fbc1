//! Structured event traces with a deterministic merge order.
//!
//! # The determinism argument
//!
//! The simulator dispatches every event from a heap entry with a unique
//! `(time, sequence-id)` pair, and the parallel engine provably pops
//! and pushes the same entries with the same ids as the sequential one
//! (see `netsim::window`). Both engines therefore stamp a *dispatch
//! context* `(t, seq)` before invoking each protocol callback — the
//! sequential loop on the main thread, the parallel engine inside each
//! worker task. Every trace event recorded during a callback inherits
//! that stamp plus an intra-callback counter `k`, giving the sort key
//!
//! ```text
//! (t, phase, seq, k)      phase 0 = outside dispatch, 1 = in-callback
//! ```
//!
//! One callback runs on exactly one thread, so `(t, 1, seq)` never
//! spans threads and `k` restores the emission order within it. Events
//! recorded *outside* any callback (fault-schedule compilation, test
//! setup) run on one thread in program order under both engines and
//! take phase 0 with a global sequence number. Both engines thus
//! produce the same **multiset** of keyed events; [`drain_jsonl`] sorts
//! by key and renders — byte-identical output, proven by
//! `crates/bench/tests/engine_equivalence.rs` on the golden scenarios.
//!
//! # Cost when disabled
//!
//! [`enabled`] is two relaxed atomic loads; [`set_dispatch`] is one.
//! No allocation, no locking, no TLS access happens until a
//! `(subsystem, level)` pair is actually enabled.
//!
//! # Buffering
//!
//! Each thread appends to a thread-local ring buffer that flushes into
//! a global sink when full and on thread exit; worker threads are
//! scoped (joined before `run_engine` returns), so no event can be
//! lost. [`drain_jsonl`] flushes the calling thread, sorts the sink,
//! and renders.

use crate::{Level, Subsystem, NUM_SUBSYSTEMS};
use serde::json;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};

/// A typed field value attached to a trace event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FieldValue {
    /// Unsigned count.
    U64(u64),
    /// Signed count.
    I64(i64),
    /// Boolean flag.
    Bool(bool),
    /// Text (JSON-escaped on render).
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// Flush the thread-local buffer into the sink at this many events.
const FLUSH_AT: usize = 256;

static INIT_DONE: AtomicBool = AtomicBool::new(false);
/// Highest enabled level across all subsystems (0 = tracing off).
static MAX_LEVEL: AtomicU8 = AtomicU8::new(0);
/// Per-subsystem enabled level, indexed by `Subsystem as usize`.
static SUB_LEVELS: [AtomicU8; NUM_SUBSYSTEMS] = [
    AtomicU8::new(0),
    AtomicU8::new(0),
    AtomicU8::new(0),
    AtomicU8::new(0),
    AtomicU8::new(0),
    AtomicU8::new(0),
];
/// Sequence for events recorded outside any dispatch context.
static FALLBACK_SEQ: AtomicU64 = AtomicU64::new(0);

/// One recorded event, keyed for the deterministic merge.
struct TraceEvent {
    t: u64,
    phase: u8,
    seq: u64,
    k: u32,
    sub: Subsystem,
    lvl: Level,
    name: &'static str,
    node: Option<u32>,
    fields: Vec<(&'static str, FieldValue)>,
}

fn sink() -> &'static Mutex<Vec<TraceEvent>> {
    static SINK: OnceLock<Mutex<Vec<TraceEvent>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(Vec::new()))
}

/// Thread-local event buffer that flushes into the sink when it fills
/// ([`FLUSH_AT`]), on [`flush_local`], and on drop as a last resort.
///
/// The drop flush alone is NOT enough for worker threads: thread-local
/// destructors may run *after* the point where `thread::scope` observes
/// the thread as finished, so an engine that drains right after joining
/// its workers can race the destructor and miss the tail of the trace.
/// Engines must have each worker call [`flush_local`] before its
/// closure returns.
struct LocalBuf {
    events: RefCell<Vec<TraceEvent>>,
}

impl LocalBuf {
    fn flush(&self) {
        let mut events = self.events.borrow_mut();
        if !events.is_empty() {
            sink()
                .lock()
                // Invariant: no section under this lock can panic (each pushes,
                // extends, takes, clears or measures a `Vec`): it never poisons.
                .expect("trace sink poisoned")
                .extend(events.drain(..));
        }
    }
}

impl Drop for LocalBuf {
    fn drop(&mut self) {
        let events = self.events.get_mut();
        if !events.is_empty() {
            if let Ok(mut s) = sink().lock() {
                s.extend(events.drain(..));
            }
        }
    }
}

thread_local! {
    static LOCAL: LocalBuf = const { LocalBuf { events: RefCell::new(Vec::new()) } };
    /// The dispatch context: `(t, seq, next_k)` of the callback this
    /// thread is currently executing, if any.
    static DISPATCH: Cell<Option<(u64, u64, u32)>> = const { Cell::new(None) };
}

fn ensure_init() {
    if INIT_DONE.load(Ordering::Relaxed) {
        return;
    }
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let spec = std::env::var("ABRR_TRACE").unwrap_or_default();
        apply_spec(&spec);
        INIT_DONE.store(true, Ordering::Relaxed);
    });
}

fn apply_spec(spec: &str) {
    let mut levels = [Level::Off; NUM_SUBSYSTEMS];
    for tok in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
        match tok.split_once('=') {
            Some((sub, lvl)) => {
                if let (Some(sub), Some(lvl)) = (Subsystem::parse(sub), Level::parse(lvl)) {
                    levels[sub as usize] = lvl;
                }
            }
            None => {
                if let Some(lvl) = Level::parse(tok) {
                    levels = [lvl; NUM_SUBSYSTEMS];
                }
            }
        }
    }
    let max = levels.iter().copied().max().unwrap_or(Level::Off);
    for (slot, lvl) in SUB_LEVELS.iter().zip(levels) {
        slot.store(lvl as u8, Ordering::Relaxed);
    }
    MAX_LEVEL.store(max as u8, Ordering::Relaxed);
}

/// Programmatically sets the filter spec (same grammar as the
/// `ABRR_TRACE` env var: a bare level, or `sub=level` pairs separated
/// by commas; unknown tokens are ignored). Overrides the env var.
pub fn set_spec(spec: &str) {
    ensure_init();
    apply_spec(spec);
}

/// Whether any tracing is enabled at all (one relaxed load).
#[inline]
pub fn active() -> bool {
    MAX_LEVEL.load(Ordering::Relaxed) != 0
}

/// Whether `(sub, lvl)` is enabled. The macros check this before
/// evaluating field expressions.
#[inline]
pub fn enabled(sub: Subsystem, lvl: Level) -> bool {
    ensure_init();
    let l = lvl as u8;
    l != 0
        && l <= MAX_LEVEL.load(Ordering::Relaxed)
        && l <= SUB_LEVELS[sub as usize].load(Ordering::Relaxed)
}

/// Engine hook: stamps the dispatch context before a protocol callback
/// for heap entry `seq` executing at simulated time `t`. Both engines
/// call this with identical `(t, seq)` pairs (see module docs).
#[inline]
pub fn set_dispatch(t: u64, seq: u64) {
    ensure_init();
    if !active() && !crate::pcap::enabled() {
        return;
    }
    DISPATCH.with(|d| d.set(Some((t, seq, 0))));
}

/// Engine hook: clears the dispatch context at run entry/exit so
/// emissions between runs (fault compilation, setup) take the
/// phase-0 fallback key under both engines.
#[inline]
pub fn clear_dispatch() {
    if !active() && !crate::pcap::enabled() {
        return;
    }
    DISPATCH.with(|d| d.set(None));
}

/// Records one event. Call through the [`crate::event!`] macro, which
/// performs the [`enabled`] check first.
pub fn record(
    sub: Subsystem,
    lvl: Level,
    name: &'static str,
    node: Option<u32>,
    fields: Vec<(&'static str, FieldValue)>,
) {
    let (t, phase, seq, k) = next_key();
    let ev = TraceEvent {
        t,
        phase,
        seq,
        k,
        sub,
        lvl,
        name,
        node,
        fields,
    };
    LOCAL.with(|l| {
        let mut events = l.events.borrow_mut();
        events.push(ev);
        if events.len() >= FLUSH_AT {
            drop(events);
            l.flush();
        }
    });
}

/// Takes the next key in the deterministic merge order: the dispatch
/// stamp plus the intra-callback counter `k` (phase 1), or the
/// phase-0 fallback outside any callback. Shared with the pcap sink
/// (`crate::pcap`) so trace events and captured packets order within
/// one common space.
pub(crate) fn next_key() -> (u64, u8, u64, u32) {
    DISPATCH.with(|d| match d.get() {
        Some((t, seq, k)) => {
            d.set(Some((t, seq, k + 1)));
            (t, 1u8, seq, k)
        }
        None => {
            let seq = FALLBACK_SEQ.fetch_add(1, Ordering::Relaxed);
            (0, 0u8, seq, 0)
        }
    })
}

fn render(ev: &TraceEvent, out: &mut String) {
    use std::fmt::Write as _;
    write!(
        out,
        "{{\"t\":{},\"ph\":{},\"seq\":{},\"k\":{},\"sub\":\"{}\",\"lvl\":\"{}\",\"ev\":",
        ev.t,
        ev.phase,
        ev.seq,
        ev.k,
        ev.sub.name(),
        ev.lvl.name(),
    )
    // Invariant: writing to a `String` cannot fail.
    .expect("write to String");
    json::encode_str(ev.name, out);
    if let Some(n) = ev.node {
        // Invariant: writing to a `String` cannot fail.
        write!(out, ",\"node\":{n}").expect("write to String");
    }
    for (key, val) in &ev.fields {
        out.push(',');
        json::encode_str(key, out);
        out.push(':');
        let v: &dyn std::fmt::Display = match val {
            FieldValue::U64(v) => v,
            FieldValue::I64(v) => v,
            FieldValue::Bool(v) => v,
            FieldValue::Str(v) => {
                json::encode_str(v, out);
                continue;
            }
        };
        // Invariant: writing to a `String` cannot fail.
        write!(out, "{v}").expect("write to String");
    }
    out.push('}');
    out.push('\n');
}

/// Flushes the calling thread's buffered events into the shared sink.
///
/// Worker threads MUST call this before their closure returns: the
/// drop-flush of the thread-local buffer can run after `thread::scope`
/// has already observed the thread as finished, so a drain performed
/// right after the join would silently miss the worker's tail events.
pub fn flush_local() {
    LOCAL.with(|l| l.flush());
    crate::pcap::flush_local();
}

/// Flushes the calling thread, drains the sink, sorts by the
/// deterministic key and renders one JSON object per line.
pub fn drain_jsonl() -> String {
    LOCAL.with(|l| l.flush());
    // Invariant: no section under this lock can panic (each pushes,
    // extends, takes, clears or measures a `Vec`): it never poisons.
    let mut events = std::mem::take(&mut *sink().lock().expect("trace sink poisoned"));
    events.sort_by_key(|e| (e.t, e.phase, e.seq, e.k));
    let mut out = String::new();
    for ev in &events {
        render(ev, &mut out);
    }
    out
}

/// Test/run isolation: discards buffered events, clears the dispatch
/// context and fallback sequence, and disables all tracing.
pub fn reset() {
    ensure_init();
    apply_spec("off");
    LOCAL.with(|l| l.events.borrow_mut().clear());
    // Invariant: no section under this lock can panic (each pushes,
    // extends, takes, clears or measures a `Vec`): it never poisons.
    sink().lock().expect("trace sink poisoned").clear();
    DISPATCH.with(|d| d.set(None));
    FALLBACK_SEQ.store(0, Ordering::Relaxed);
}

/// Re-arms the per-run state (dispatch context and fallback sequence)
/// without touching the spec or buffered events. Engines call this so
/// repeated runs emit identically keyed pre-run events.
pub fn new_run() {
    if !active() && !crate::pcap::enabled() {
        return;
    }
    DISPATCH.with(|d| d.set(None));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event;

    // The trace facility is process-global; every test below serializes
    // on this lock and resets around itself.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = guard();
        reset();
        event!(Core, Debug, "core.rx", node = 1, "from" => 2u32);
        assert_eq!(drain_jsonl(), "");
    }

    #[test]
    fn spec_filters_by_subsystem_and_level() {
        let _g = guard();
        reset();
        set_spec("core=debug,netsim=info");
        assert!(enabled(Subsystem::Core, Level::Debug));
        assert!(enabled(Subsystem::Core, Level::Info));
        assert!(!enabled(Subsystem::Core, Level::Trace));
        assert!(enabled(Subsystem::Netsim, Level::Info));
        assert!(!enabled(Subsystem::Netsim, Level::Debug));
        assert!(!enabled(Subsystem::Faults, Level::Error));
        set_spec("warn");
        assert!(enabled(Subsystem::Faults, Level::Warn));
        assert!(!enabled(Subsystem::Faults, Level::Info));
        reset();
    }

    #[test]
    fn dispatch_key_orders_and_renders() {
        let _g = guard();
        reset();
        set_spec("core=trace");
        // Out-of-order dispatch stamps; drain must sort by (t, seq, k).
        set_dispatch(20, 7);
        event!(Core, Debug, "b", node = 2, "x" => 1u64);
        set_dispatch(10, 3);
        event!(Core, Debug, "a");
        event!(Core, Trace, "a2", "s" => "q\"uote");
        clear_dispatch();
        event!(Core, Info, "pre");
        let out = drain_jsonl();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        // Phase-0 fallback sorts first (t=0), then t=10 (k ordered), then t=20.
        assert_eq!(
            lines[0],
            r#"{"t":0,"ph":0,"seq":0,"k":0,"sub":"core","lvl":"info","ev":"pre"}"#
        );
        assert_eq!(
            lines[1],
            r#"{"t":10,"ph":1,"seq":3,"k":0,"sub":"core","lvl":"debug","ev":"a"}"#
        );
        assert_eq!(
            lines[2],
            r#"{"t":10,"ph":1,"seq":3,"k":1,"sub":"core","lvl":"trace","ev":"a2","s":"q\"uote"}"#
        );
        assert_eq!(
            lines[3],
            r#"{"t":20,"ph":1,"seq":7,"k":0,"sub":"core","lvl":"debug","ev":"b","node":2,"x":1}"#
        );
        reset();
    }

    #[test]
    fn control_characters_render_as_valid_json() {
        let _g = guard();
        reset();
        set_spec("core=debug");
        event!(Core, Debug, "multi", "s" => "line\nbreak\t\u{1}");
        let out = drain_jsonl();
        reset();
        let line = out.strip_suffix('\n').expect("one line");
        assert!(!line.contains('\n'), "{line}");
        let v: serde::Value = serde::json::from_str(line).expect("valid JSON");
        assert_eq!(
            v.get("s").and_then(|s| s.as_str()),
            Some("line\nbreak\t\u{1}")
        );
    }

    #[test]
    fn parallel_emission_merges_identically() {
        let _g = guard();
        reset();
        set_spec("core=debug");
        // Sequential reference: callbacks (t=5, seq=0..8) in order.
        for seq in 0..8u64 {
            set_dispatch(5, seq);
            event!(Core, Debug, "cb", node = seq as u32, "seq" => seq);
            event!(Core, Debug, "cb2", node = seq as u32);
        }
        clear_dispatch();
        let sequential = drain_jsonl();
        reset();
        set_spec("core=debug");
        // Same callbacks scattered across scoped threads in reverse.
        std::thread::scope(|s| {
            for seq in (0..8u64).rev() {
                s.spawn(move || {
                    set_dispatch(5, seq);
                    event!(Core, Debug, "cb", node = seq as u32, "seq" => seq);
                    event!(Core, Debug, "cb2", node = seq as u32);
                    // Per the LocalBuf contract: workers flush before
                    // returning — the TLS-destructor flush can race
                    // the scope join and drop this thread's tail.
                    flush_local();
                });
            }
        });
        let parallel = drain_jsonl();
        assert_eq!(sequential, parallel);
        reset();
    }
}
