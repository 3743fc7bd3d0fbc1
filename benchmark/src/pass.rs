//! One pass: build a fresh world from the seed, run the timed region
//! in fixed slices of events, and check the result.
//!
//! A pass is the benchmark's unit of work and its "operation": the
//! same seed always produces the same pass, event for event, so host
//! time is the only thing that may differ between two passes.

use crate::alloc;
use crate::spans::Recorder;
use crate::workloads::Workload;
use abrr::audit::{audit_forwarding, ForwardingOutcome};
use abrr::{BgpNode, NetworkSpec, UpdateCounters};
use abrr_bench::{counter_delta, fleet_stats, SETTLE_BUDGET_US};
use faults::{FaultKind, FaultSchedule};
use netsim::{Engine, RunLimits, Sim, Time};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;
use workload::{churn, regen, Tier1Model, TraceRecord};

/// Events per timed slice.
pub const SLICE_EVENTS: u64 = 2_000;

/// Replay speed-up of a snapshot load (as `fig6`/`fig7` use).
const SNAPSHOT_SPEEDUP: u64 = 1_000;

/// Everything a finished pass leaves behind; the traced run samples
/// layer inputs from it.
pub struct World {
    /// The generated Tier-1 model.
    pub model: Tier1Model,
    /// The network spec the sim was built from.
    pub spec: Arc<NetworkSpec>,
    /// The simulator, quiesced.
    pub sim: Sim<BgpNode>,
}

/// One timed slice: host time plus the simulated state it reached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Slice {
    /// Host nanoseconds.
    pub host_ns: u64,
    /// Events processed in the slice.
    pub events: u64,
    /// Simulated time at the end of the slice.
    pub end_time: Time,
    /// Fleet-wide iBGP UPDATEs transmitted so far.
    pub transmitted: u64,
}

impl Slice {
    /// The simulated part, which must be identical in every pass.
    pub fn simulated(&self) -> (u64, Time, u64) {
        (self.events, self.end_time, self.transmitted)
    }
}

/// Counts taken around the timed region of a traced pass.
#[derive(Clone, Debug, Default)]
pub struct LayerCounts {
    /// Largest event-queue depth (`obs::profile`).
    pub max_queue: u64,
    /// Windows or epochs of a parallel engine (0 for `seq`).
    pub windows: u64,
    /// Fences of the sharded engine.
    pub fences: u64,
    /// Worker utilisation of a parallel engine.
    pub utilisation: f64,
    /// `obs::metrics` registry at the end of the timed region, reset at
    /// its start.
    pub metrics: obs::MetricsSnapshot,
    /// Interner hits in the timed region.
    pub intern_hits: u64,
    /// Interner misses in the timed region.
    pub intern_misses: u64,
    /// Live interner entries at the end.
    pub intern_entries: u64,
    /// Allocations in the timed region.
    pub alloc_count: u64,
    /// Bytes allocated in the timed region.
    pub alloc_bytes: u64,
    /// Peak live heap bytes over the pass.
    pub alloc_peak: u64,
    /// Heap bytes held by the sim at the end of the timed region.
    pub sim_live_bytes: u64,
}

/// What one pass measured.
pub struct PassResult {
    /// Host seconds from the start of the pass to the first timed event.
    pub setup_s: f64,
    /// Slice 0 schedules the timed input (`regen::replay`, plus
    /// `faults::compile`); the rest are `SLICE_EVENTS`-event engine runs.
    pub slices: Vec<Slice>,
    /// eBGP input records scheduled in the timed region.
    pub records: u64,
    /// Fleet-wide update counters over the timed region.
    pub counters: UpdateCounters,
    /// The oracle text: fingerprint lines plus totals.
    pub oracle: String,
    /// Why the pass failed; empty when it passed.
    pub failures: Vec<String>,
    /// `VmHWM` at the end of the pass, kB.
    pub peak_rss_kb: u64,
    /// Layer counts (traced passes only; default otherwise).
    pub layers: LayerCounts,
    /// Index of the pass's span, when recorded.
    pub span: Option<usize>,
}

impl PassResult {
    /// Events in the timed region.
    pub fn events(&self) -> u64 {
        self.slices.iter().map(|s| s.events).sum()
    }

    /// Host seconds of the timed region as this pass saw it.
    pub fn timed_s(&self) -> f64 {
        self.slices.iter().map(|s| s.host_ns).sum::<u64>() as f64 / 1e9
    }
}

fn fleet_transmitted(sim: &Sim<BgpNode>) -> u64 {
    sim.nodes().map(|(_, n)| n.counters().transmitted).sum()
}

/// Runs `sim` to quiescence or `deadline` in slices of `slice_events`,
/// one span per slice.
fn run_slices(
    sim: &mut Sim<BgpNode>,
    engine: Engine,
    slice_events: u64,
    deadline: Time,
    rec: &mut Recorder,
    slices: &mut Vec<Slice>,
) -> bool {
    loop {
        let open = rec.enter("netsim.slice");
        let t = Instant::now();
        let out = sim.run_engine(
            engine,
            RunLimits {
                max_events: slice_events,
                max_time: deadline,
            },
        );
        let host_ns = t.elapsed().as_nanos() as u64;
        rec.exit(open, &[("events", out.events)]);
        slices.push(Slice {
            host_ns,
            events: out.events,
            end_time: out.end_time,
            transmitted: fleet_transmitted(sim),
        });
        if out.quiesced {
            return true;
        }
        if out.events < slice_events {
            return false; // stopped by the deadline: still churning
        }
    }
}

/// Loops and blackholes over every model prefix from every router.
fn audit(world: &World) -> (u64, u64) {
    let (mut loops, mut holes) = (0, 0);
    for plan in &world.model.prefixes {
        for outcome in audit_forwarding(&world.sim, &world.spec, &plan.prefix).values() {
            match outcome {
                ForwardingOutcome::Loop(_) => loops += 1,
                ForwardingOutcome::Blackhole { .. } => holes += 1,
                ForwardingOutcome::Delivered { .. } => {}
            }
        }
    }
    (loops, holes)
}

/// A world set up to the first timed event, with the timed input.
pub struct Prepared {
    world: World,
    /// The eBGP records the timed region replays, at `speedup`.
    records: Vec<TraceRecord>,
    speedup: u64,
    /// Simulated length of the timed trace (0 for a snapshot load).
    duration_us: Time,
    /// Host seconds the set-up took.
    pub setup_s: f64,
    failures: Vec<String>,
    live_before_sim: u64,
}

/// Everything a pass does before its first timed event: model and
/// snapshot generation, spec, `build_sim`, and for a churn workload
/// snapshot convergence (on the sequential engine) and churn
/// generation. The run also calls it on its own to sample `setup_s`
/// more often than once a pass.
pub fn set_up(w: &Workload, seed: u64, scale_div: u64, rec: &mut Recorder) -> Prepared {
    let mut failures = Vec::new();
    let setup_span = rec.enter("setup");
    let setup_start = Instant::now();
    let model = rec.leaf("workload.model_gen", || {
        Tier1Model::generate(w.tier1_config(seed, scale_div))
    });
    let snapshot = rec.leaf("workload.snapshot_gen", || churn::initial_snapshot(&model));
    let spec = Arc::new(rec.leaf("core.spec_build", || w.spec(&model)));
    let live_before_sim = alloc::stats().live;
    let mut sim = rec.leaf("core.build_sim", || abrr::build_sim(spec.clone()));
    let (records, speedup, duration_us) = match w.churn_config(seed, scale_div) {
        None => (snapshot, SNAPSHOT_SPEEDUP, 0),
        Some(cfg) => {
            rec.leaf("workload.replay", || {
                regen::replay(&mut sim, &snapshot, SNAPSHOT_SPEEDUP)
            });
            let converged = rec.leaf("netsim.converge", || {
                sim.run(RunLimits {
                    max_events: u64::MAX,
                    max_time: SETTLE_BUDGET_US,
                })
            });
            if !converged.quiesced {
                failures.push("snapshot load did not quiesce".to_string());
            }
            let trace = rec.leaf("workload.churn_gen", || churn::generate(&model, &cfg));
            (trace, 1, cfg.duration_us)
        }
    };
    let setup_s = setup_start.elapsed().as_secs_f64();
    rec.exit(setup_span, &[]);
    Prepared {
        world: World { model, spec, sim },
        records,
        speedup,
        duration_us,
        setup_s,
        failures,
        live_before_sim,
    }
}

/// Runs one pass of `w`. `engine` drives the timed region;
/// `slice_events` is [`SLICE_EVENTS`] for measured passes and
/// `u64::MAX` to hand a parallel engine the whole region at once.
pub fn run_pass(
    w: &Workload,
    seed: u64,
    scale_div: u64,
    engine: Engine,
    slice_events: u64,
    rec: &mut Recorder,
) -> (PassResult, World) {
    let traced = rec.enabled();
    let pass_span = rec.enter("pass");
    alloc::reset_peak();
    let Prepared {
        mut world,
        records,
        speedup,
        duration_us,
        setup_s,
        mut failures,
        live_before_sim,
    } = set_up(w, seed, scale_div, rec);

    // ---- timed region ---------------------------------------------
    let all_nodes = world.spec.all_nodes();
    let before = fleet_stats(&world.sim, &all_nodes);
    if traced {
        obs::metrics::reset();
        obs::profile::take_runs();
    }
    let alloc_before = alloc::stats();
    let intern_before = bgp_types::intern::stats();

    let timed_span = rec.enter("timed");
    let mut slices = Vec::new();
    let t0 = world.sim.now();
    let t = Instant::now();
    rec.leaf("workload.replay", || {
        regen::replay(&mut world.sim, &records, speedup)
    });
    if w.arr_failure {
        rec.leaf("faults.compile", || {
            let mut schedule = FaultSchedule::new(seed);
            schedule.push(
                t0 + duration_us / 2,
                FaultKind::ArrFailure {
                    arr: world.spec.all_arrs()[0],
                },
            );
            if let Err(e) = faults::compile(&schedule, &world.spec, &mut world.sim) {
                failures.push(format!("fault schedule did not compile: {e}"));
            }
        });
    }
    slices.push(Slice {
        host_ns: t.elapsed().as_nanos() as u64,
        events: 0,
        end_time: t0,
        transmitted: fleet_transmitted(&world.sim),
    });
    let run_span = rec.enter("netsim.run");
    let quiesced = run_slices(
        &mut world.sim,
        engine,
        slice_events,
        t0 + duration_us + SETTLE_BUDGET_US,
        rec,
        &mut slices,
    );
    let events: u64 = slices.iter().map(|s| s.events).sum();
    rec.exit(
        run_span,
        &[("events", events), ("slices", slices.len() as u64 - 1)],
    );
    rec.exit(timed_span, &[("records", records.len() as u64)]);
    if !quiesced {
        failures.push("timed region did not quiesce".to_string());
    }

    let mut layers = LayerCounts::default();
    if traced {
        let alloc_after = alloc::stats();
        let intern_after = bgp_types::intern::stats();
        let profiles = obs::profile::take_runs();
        layers = LayerCounts {
            max_queue: profiles.iter().map(|p| p.max_queue).max().unwrap_or(0) as u64,
            windows: profiles.iter().map(|p| p.epochs).sum(),
            fences: profiles.iter().map(|p| p.fences).sum(),
            utilisation: {
                let busy: u64 = profiles.iter().map(|p| p.task_ns).sum();
                let offered: u64 = profiles.iter().map(|p| p.wall_ns * p.threads as u64).sum();
                if offered == 0 {
                    0.0
                } else {
                    busy as f64 / offered as f64
                }
            },
            metrics: obs::metrics::snapshot(),
            intern_hits: intern_after.hits - intern_before.hits,
            intern_misses: intern_after.misses - intern_before.misses,
            intern_entries: intern_after.entries as u64,
            alloc_count: alloc_after.count - alloc_before.count,
            alloc_bytes: alloc_after.bytes - alloc_before.bytes,
            alloc_peak: alloc_after.peak,
            sim_live_bytes: alloc_after.live.saturating_sub(live_before_sim),
        };
    }

    // ---- checks ---------------------------------------------------
    let check_span = rec.enter("check");
    let after = fleet_stats(&world.sim, &all_nodes);
    let counters = counter_delta(&before, &after);
    let (loops, holes) = rec.leaf("core.audit", || audit(&world));
    if loops + holes > 0 {
        failures.push(format!(
            "forwarding audit: {loops} loops, {holes} blackholes"
        ));
    }
    let mut oracle = rec.leaf("bench.fingerprint", || {
        abrr_bench::fingerprint::fingerprint(w.name, &world.sim, &world.spec)
    });
    let end_time = slices.last().map_or(t0, |s| s.end_time);
    writeln!(
        oracle,
        "timed records={} events={events} sim_end_us={end_time} rx={} gen={} tx={} loop={}",
        records.len(),
        counters.received,
        counters.generated,
        counters.transmitted,
        counters.loop_prevented,
    )
    .expect("write to String");
    rec.exit(check_span, &[]);
    rec.exit(pass_span, &[("failed", !failures.is_empty() as u64)]);

    let result = PassResult {
        setup_s,
        slices,
        records: records.len() as u64,
        counters,
        oracle,
        failures,
        peak_rss_kb: abrr_bench::peak_rss_kb(),
        layers,
        span: pass_span.id(),
    };
    (result, world)
}
