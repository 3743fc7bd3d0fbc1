//! The oracle stack: runs a loaded scenario's checks and reports
//! verdicts.
//!
//! Each [`Check`] runs its mode once and applies
//! the requested oracles:
//!
//! * **quiesces** — the run reached quiescence inside the budget (a
//!   `false` expectation asserts a genuine oscillation).
//! * **no_loops** — `abrr::audit::count_loops` finds nothing.
//! * **no_blackholes** — every *live* router delivers every *live*
//!   prefix (a feed withdrawn by the workload, or originated at a
//!   router left down by the fault schedule, is not live).
//! * **matches_full_mesh** — every live router's exit equals its
//!   full-mesh exit (equal-IGP-cost exits count as equal), computed in
//!   closed form by `abrr::audit::full_mesh_exits` from the eBGP routes
//!   the run's live borders hold at the end. No second simulation runs,
//!   and an exit lost to a fault is out of the reference too, so the
//!   oracle holds under faults that remove exits.
//! * **wire** — bytes wire mode (every session message encoded to RFC
//!   4271 bytes, and the receiver acting on what it decoded) produces
//!   identical outcomes, selections, and byte-identical obs traces vs
//!   struct mode (DESIGN.md §14).
//! * **exits** — pinned (router, prefix) → exit expectations.
//!
//! Every run is [`netsim::Sim::run`]. The window engine is not an
//! oracle here: `crates/bench/tests/engine_equivalence.rs` holds it to
//! the sequential loop on the corpus and the fuzzer's fixed seeds.

use crate::compile::{Loaded, RunReport};
use crate::schema::{mode_keyword, Check, Verdict};
use abrr::audit;
use abrr::spec::Mode;
use bgp_types::{Ipv4Prefix, RouterId};
use netsim::{RunConfig, WireMode};
use std::sync::Mutex;

/// One failed oracle.
#[derive(Clone, Debug)]
pub struct CheckFailure {
    /// The mode the check ran under.
    pub mode: Mode,
    /// The oracle that failed (`quiesces`, `no_loops`, ...).
    pub oracle: String,
    /// Human-readable detail.
    pub msg: String,
}

impl std::fmt::Display for CheckFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}/{}] {}",
            mode_keyword(&self.mode),
            self.oracle,
            self.msg
        )
    }
}

/// The outcome of running every check of a scenario.
#[derive(Clone, Debug)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: String,
    /// Whether the file declares `expect_verdict: fail`.
    pub expect_fail: bool,
    /// Number of checks run.
    pub checks_run: usize,
    /// Every oracle failure (empty = all green).
    pub failures: Vec<CheckFailure>,
}

impl ScenarioReport {
    /// All oracles green.
    pub fn all_green(&self) -> bool {
        self.failures.is_empty()
    }

    /// The scenario verdict, honoring `expect_verdict`: an xfail
    /// scenario *passes* exactly when the oracle stack catches it.
    pub fn verdict_ok(&self) -> bool {
        if self.expect_fail {
            !self.failures.is_empty()
        } else {
            self.failures.is_empty()
        }
    }
}

/// Serializes access to the global obs trace state (the wire oracle
/// toggles tracing process-wide).
static OBS_GUARD: Mutex<()> = Mutex::new(());

/// Runs every check of a loaded scenario.
pub fn run_checks(loaded: &Loaded) -> ScenarioReport {
    let mut report = ScenarioReport {
        name: loaded.name().to_string(),
        expect_fail: loaded.file().expect_verdict == Verdict::Fail,
        checks_run: 0,
        failures: Vec::new(),
    };
    let checks = loaded.file().checks.clone();
    for check in &checks {
        report.checks_run += 1;
        run_one(loaded, check, &mut report);
    }
    report
}

fn fail(report: &mut ScenarioReport, mode: &Mode, oracle: &str, msg: impl Into<String>) {
    report.failures.push(CheckFailure {
        mode: mode.clone(),
        oracle: oracle.to_string(),
        msg: msg.into(),
    });
}

fn run_one(loaded: &Loaded, check: &Check, report: &mut ScenarioReport) {
    let mode = &check.mode;
    let run = match loaded.run(mode.clone(), RunConfig::default()) {
        Ok(r) => r,
        Err(e) => {
            fail(report, mode, "run", e);
            return;
        }
    };

    if let Some(expected) = check.quiesces {
        if run.outcome.quiesced != expected {
            fail(
                report,
                mode,
                "quiesces",
                if expected {
                    format!(
                        "did not quiesce within {} events (t={}µs)",
                        run.outcome.events, run.outcome.end_time
                    )
                } else {
                    format!(
                        "expected an oscillation but the run quiesced after {} events",
                        run.outcome.events
                    )
                },
            );
        }
    }

    // The state auditors only make sense on a settled network.
    let settled = run.outcome.quiesced;
    let live_routers = live_routers(loaded, &run);
    let live_prefixes = live_prefixes(loaded, &run);

    if check.no_loops {
        if settled {
            let loops = audit::count_loops(&run.sim, &run.spec, &live_prefixes);
            if loops != 0 {
                fail(
                    report,
                    mode,
                    "no_loops",
                    format!(
                        "{loops} forwarding loop(s) across {} prefixes",
                        live_prefixes.len()
                    ),
                );
            }
        } else {
            fail(
                report,
                mode,
                "no_loops",
                "run did not quiesce; loop audit skipped",
            );
        }
    }

    if check.no_blackholes {
        if settled {
            let mut holes = Vec::new();
            for p in &live_prefixes {
                for r in &live_routers {
                    if let audit::ForwardingOutcome::Blackhole { at } =
                        audit::forwarding_path(&run.sim, &run.spec, *r, p)
                    {
                        holes.push(format!("{r:?}->{p} dies at {at:?}"));
                    }
                }
            }
            if !holes.is_empty() {
                let shown = holes.iter().take(4).cloned().collect::<Vec<_>>().join("; ");
                fail(
                    report,
                    mode,
                    "no_blackholes",
                    format!("{} blackhole(s): {shown}", holes.len()),
                );
            }
        } else {
            fail(
                report,
                mode,
                "no_blackholes",
                "run did not quiesce; blackhole audit skipped",
            );
        }
    }

    if check.matches_full_mesh {
        if settled {
            let rep = audit::full_mesh_exits(&run.sim, &run.spec, &live_prefixes);
            if !rep.is_efficient() {
                let shown = rep
                    .mismatches
                    .iter()
                    .take(4)
                    .map(|m| {
                        format!(
                            "{:?}/{}: {:?} vs {:?}",
                            m.router, m.prefix, m.got, m.expected
                        )
                    })
                    .collect::<Vec<_>>()
                    .join("; ");
                fail(
                    report,
                    mode,
                    "matches_full_mesh",
                    format!(
                        "{}/{} exits differ from full mesh over the live borders' routes: {shown}",
                        rep.mismatches.len(),
                        rep.compared
                    ),
                );
            }
        } else {
            fail(
                report,
                mode,
                "matches_full_mesh",
                "run did not quiesce; full-mesh audit skipped",
            );
        }
    }

    if check.wire {
        if let Err(msg) = wire_invisible(loaded, mode, &live_routers, &live_prefixes) {
            fail(report, mode, "wire", msg);
        }
    }

    for x in &check.exits {
        let got = run
            .sim
            .node(x.router)
            .selected(&x.prefix)
            .map(|s| s.exit_router());
        if got != x.exit {
            fail(
                report,
                mode,
                "exits",
                format!(
                    "router {} exits {} via {:?}, expected {:?}",
                    x.router.0, x.prefix, got, x.exit
                ),
            );
        }
    }
}

/// Data-plane routers still up at the end of the run.
fn live_routers(loaded: &Loaded, run: &RunReport) -> Vec<RouterId> {
    loaded
        .routers()
        .into_iter()
        .filter(|r| run.sim.is_node_up(*r))
        .collect()
}

/// Prefixes with at least one live origin: fed by the workload, not
/// withdrawn later, and whose feeding router is still up.
fn live_prefixes(loaded: &Loaded, run: &RunReport) -> Vec<Ipv4Prefix> {
    match loaded {
        Loaded::Tier1(_) => loaded.prefixes(),
        Loaded::Gadget(g) => {
            let w = &g.file.workload;
            loaded
                .prefixes()
                .into_iter()
                .filter(|p| {
                    w.feeds.iter().any(|f| {
                        f.prefix == *p
                            && run.sim.is_node_up(f.router)
                            && !w.withdraws.iter().any(|wd| {
                                wd.router == f.router
                                    && wd.peer_addr == f.peer_addr
                                    && wd.prefix == f.prefix
                                    && wd.at > f.at
                            })
                    })
                })
                .collect()
        }
    }
}

/// One faulted run of `mode` in `wire` mode with its obs trace
/// captured. The caller holds [`OBS_GUARD`].
fn run_traced(loaded: &Loaded, mode: &Mode, wire: WireMode) -> Result<(RunReport, String), String> {
    obs::trace::reset();
    obs::trace::set_spec("trace");
    let cfg = RunConfig {
        wire,
        ..Default::default()
    };
    let run = loaded.run(mode.clone(), cfg);
    let trace = obs::trace::drain_jsonl();
    obs::trace::reset();
    run.map(|r| (r, trace))
}

/// The wire-mode differential oracle (DESIGN.md §14): running the
/// scenario with every session carrying RFC 4271 bytes, which each
/// receiver decodes and acts on, must change *nothing* — outcome,
/// selections and the byte-identical obs trace. Codec bugs either
/// hard-fail at encode or decode or surface here as a diff.
fn wire_invisible(
    loaded: &Loaded,
    mode: &Mode,
    routers: &[RouterId],
    prefixes: &[Ipv4Prefix],
) -> Result<(), String> {
    let _guard = OBS_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    let (structs, structs_trace) = run_traced(loaded, mode, WireMode::Off)?;
    let (wire, wire_trace) = run_traced(loaded, mode, WireMode::Bytes)?;
    if structs.outcome != wire.outcome {
        return Err(format!(
            "outcomes diverge: struct mode {:?} vs bytes-wire mode {:?}",
            structs.outcome, wire.outcome
        ));
    }
    if !audit::selections_equal(&structs.sim, &wire.sim, routers, prefixes) {
        return Err("selections diverge between struct and bytes-wire mode".to_string());
    }
    if structs_trace != wire_trace {
        let first_diff = structs_trace
            .lines()
            .zip(wire_trace.lines())
            .position(|(x, y)| x != y);
        return Err(format!(
            "obs traces diverge between struct and bytes-wire mode \
             ({} vs {} events, first difference at line {first_diff:?})",
            structs_trace.lines().count(),
            wire_trace.lines().count()
        ));
    }
    Ok(())
}
