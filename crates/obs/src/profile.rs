//! Wall-clock engine profiling.
//!
//! Everything here is **nondeterministic by nature** (wall time, queue
//! depths under a particular thread schedule) and therefore lives
//! outside the metrics registry: it must never be part of an
//! engine-equivalence comparison. The engines feed it when profiling
//! is enabled; `obs_report` in the bench pipeline renders it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Wall nanoseconds spent inside parallel worker tasks (utilization
/// numerator; accumulated from worker threads, hence an atomic rather
/// than a `RunProfile` field filled at run end).
static TASK_NS: AtomicU64 = AtomicU64::new(0);

/// Turns engine profiling on or off.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether profiling is on (one relaxed load; engines check this once
/// per run and once per epoch, never per event).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Profile of one engine run (one `Sim::run` / `Sim::run_engine`
/// call).
#[derive(Clone, Debug, Default)]
pub struct RunProfile {
    /// `"seq"`, `"epoch"`, or `"sharded"`.
    pub engine: &'static str,
    /// Worker threads (0 for the sequential engine).
    pub threads: usize,
    /// Wall time of the whole call, nanoseconds.
    pub wall_ns: u64,
    /// Events processed.
    pub events: u64,
    /// Windows executed (0 for the sequential engine); under the
    /// epoch engine a window is one same-timestamp epoch.
    pub epochs: u64,
    /// Synchronization fences dispatched sequentially (0 for the
    /// sequential engine).
    pub fences: u64,
    /// Largest event-queue depth observed.
    pub max_queue: usize,
    /// Largest single-epoch batch (pure events run concurrently).
    pub max_epoch_batch: usize,
    /// Wall nanoseconds spent inside worker tasks (summed across
    /// workers; `task_ns / (wall_ns * threads)` approximates worker
    /// utilization).
    pub task_ns: u64,
}

fn runs() -> &'static Mutex<Vec<RunProfile>> {
    static RUNS: OnceLock<Mutex<Vec<RunProfile>>> = OnceLock::new();
    RUNS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Worker hook: adds `ns` of in-task execution time to the run being
/// recorded.
pub fn add_task_ns(ns: u64) {
    TASK_NS.fetch_add(ns, Ordering::Relaxed);
}

/// Engine hook: called at run start so [`add_task_ns`] accumulation
/// belongs to this run.
pub fn run_started() {
    TASK_NS.store(0, Ordering::Relaxed);
}

/// Engine hook: records a finished run (fills `task_ns` from the
/// worker accumulator).
pub fn run_finished(mut profile: RunProfile) {
    profile.task_ns = TASK_NS.swap(0, Ordering::Relaxed);
    runs().lock().expect("profile store poisoned").push(profile);
}

/// Takes every recorded run profile (clearing the store).
pub fn take_runs() -> Vec<RunProfile> {
    std::mem::take(&mut *runs().lock().expect("profile store poisoned"))
}

/// Renders run profiles as the `obs_report` profiling section.
pub fn render_runs(profiles: &[RunProfile]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (i, p) in profiles.iter().enumerate() {
        let wall_ms = p.wall_ns as f64 / 1e6;
        let ev_per_s = if p.wall_ns > 0 {
            p.events as f64 / (p.wall_ns as f64 / 1e9)
        } else {
            0.0
        };
        write!(
            out,
            "  run {i}: engine={} threads={} wall={wall_ms:.1}ms events={} ({ev_per_s:.0}/s) max_queue={}",
            p.engine, p.threads, p.events, p.max_queue
        )
        .expect("write to String");
        if p.threads > 0 {
            let util = if p.wall_ns > 0 {
                p.task_ns as f64 / (p.wall_ns as f64 * p.threads as f64)
            } else {
                0.0
            };
            write!(
                out,
                " epochs={} max_batch={} utilization={:.0}% fences={}",
                p.epochs,
                p.max_epoch_batch,
                util * 100.0,
                p.fences
            )
            .expect("write to String");
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_render() {
        set_enabled(true);
        run_started();
        add_task_ns(500);
        run_finished(RunProfile {
            engine: "epoch",
            threads: 2,
            wall_ns: 1_000,
            events: 10,
            epochs: 3,
            fences: 0,
            max_queue: 7,
            max_epoch_batch: 4,
            task_ns: 0,
        });
        set_enabled(false);
        let runs = take_runs();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].task_ns, 500, "task accumulator folded in");
        let text = render_runs(&runs);
        assert!(text.contains("engine=epoch"), "{text}");
        assert!(text.contains("utilization=25%"), "{text}");
        assert!(take_runs().is_empty());
    }
}
