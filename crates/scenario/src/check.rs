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
//! * **matches_full_mesh** — exits equal a fault-free full-mesh twin's
//!   (equal-IGP-cost exits count as equal). Faults are excluded from
//!   the twin, so this asserts *post-recovery* equivalence: every
//!   fault a scenario injects must be survivable for this oracle to
//!   hold.
//! * **engines_agree** — the sequential engine, the epoch-parallel
//!   engine (2 workers), and the AP-sharded engine (2 shards) produce
//!   identical outcomes, identical selections, and byte-identical obs
//!   traces.
//! * **wire** — encode-decode-verify wire mode (every session message
//!   round-tripped through the BGP byte codec as a differential
//!   oracle) produces identical outcomes, selections, and
//!   byte-identical obs traces vs struct mode, on the sequential and
//!   AP-sharded engines (DESIGN.md §14).
//! * **exits** — pinned (router, prefix) → exit expectations.

use crate::compile::{Loaded, RunReport};
use crate::schema::{Check, ModeSpec, Verdict};
use abrr::audit;
use bgp_types::{Ipv4Prefix, RouterId};
use netsim::{Engine, RunConfig, WireMode};
use std::sync::Mutex;

/// One failed oracle.
#[derive(Clone, Debug)]
pub struct CheckFailure {
    /// The mode the check ran under.
    pub mode: ModeSpec,
    /// The oracle that failed (`quiesces`, `no_loops`, ...).
    pub oracle: String,
    /// Human-readable detail.
    pub msg: String,
}

impl std::fmt::Display for CheckFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}/{}] {}", self.mode.keyword(), self.oracle, self.msg)
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

/// Serializes access to the global obs trace state (the engine
/// equivalence oracle toggles tracing process-wide).
static OBS_GUARD: Mutex<()> = Mutex::new(());

/// Runs every check of a loaded scenario. `engine` selects the engine
/// for the primary runs; the engine-equivalence oracle always compares
/// all three engines regardless.
pub fn run_checks(loaded: &Loaded, engine: Engine) -> ScenarioReport {
    let mut report = ScenarioReport {
        name: loaded.name().to_string(),
        expect_fail: loaded.file().expect_verdict == Verdict::Fail,
        checks_run: 0,
        failures: Vec::new(),
    };
    let checks = loaded.file().checks.clone();
    for check in &checks {
        report.checks_run += 1;
        run_one(loaded, check, engine, &mut report);
    }
    report
}

fn fail(report: &mut ScenarioReport, mode: ModeSpec, oracle: &str, msg: impl Into<String>) {
    report.failures.push(CheckFailure {
        mode,
        oracle: oracle.to_string(),
        msg: msg.into(),
    });
}

fn run_one(loaded: &Loaded, check: &Check, engine: Engine, report: &mut ScenarioReport) {
    let mode = check.mode;
    let primary = RunConfig {
        engine,
        ..Default::default()
    };
    let run = match loaded.run(mode, true, primary) {
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
        match loaded.run(ModeSpec::FullMesh, false, primary) {
            Err(e) => fail(report, mode, "matches_full_mesh", e),
            Ok(mesh) => {
                if !settled || !mesh.outcome.quiesced {
                    fail(
                        report,
                        mode,
                        "matches_full_mesh",
                        "run or full-mesh twin did not quiesce",
                    );
                } else {
                    let rep = audit::compare_exits(
                        &run.sim,
                        &run.spec,
                        &mesh.sim,
                        &live_routers,
                        &live_prefixes,
                    );
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
                                "{}/{} exits differ from the fault-free full-mesh twin: {shown}",
                                rep.mismatches.len(),
                                rep.compared
                            ),
                        );
                    }
                }
            }
        }
    }

    if check.engines_agree {
        if let Err(msg) = engines_agree(loaded, mode, &live_routers, &live_prefixes) {
            fail(report, mode, "engines_agree", msg);
        }
    }

    if check.wire {
        if let Err(msg) = wire_invisible(loaded, mode, &live_routers, &live_prefixes) {
            fail(report, mode, "wire", msg);
        }
    }

    for x in &check.exits {
        let prefix: Ipv4Prefix = match x.prefix.parse() {
            Ok(p) => p,
            Err(e) => {
                fail(
                    report,
                    mode,
                    "exits",
                    format!("bad prefix {}: {e}", x.prefix),
                );
                continue;
            }
        };
        let got = run
            .sim
            .node(RouterId(x.router))
            .selected(&prefix)
            .map(|s| s.exit_router());
        let expected = x.exit.map(RouterId);
        if got != expected {
            fail(
                report,
                mode,
                "exits",
                format!(
                    "router {} exits {} via {:?}, expected {:?}",
                    x.router, x.prefix, got, expected
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
                        f.prefix.parse::<Ipv4Prefix>().ok().as_ref() == Some(p)
                            && run.sim.is_node_up(RouterId(f.router))
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

/// One faulted run of `mode` under `cfg` with its obs trace captured.
/// The caller holds [`OBS_GUARD`].
fn run_traced(
    loaded: &Loaded,
    mode: ModeSpec,
    cfg: RunConfig,
) -> Result<(RunReport, String), String> {
    obs::trace::reset();
    obs::trace::set_spec("trace");
    let run = loaded.run(mode, true, cfg);
    let trace = obs::trace::drain_jsonl();
    obs::trace::reset();
    run.map(|r| (r, trace))
}

/// The differential core of the `engines_agree` and `wire` oracles: two
/// run configurations of one scenario must agree on outcome,
/// selections, and byte-identical obs traces.
fn same_run(
    (a, a_trace): &(RunReport, String),
    a_name: &str,
    (b, b_trace): &(RunReport, String),
    b_name: &str,
    routers: &[RouterId],
    prefixes: &[Ipv4Prefix],
) -> Result<(), String> {
    if a.outcome != b.outcome {
        return Err(format!(
            "outcomes diverge: {a_name} {:?} vs {b_name} {:?}",
            a.outcome, b.outcome
        ));
    }
    if !audit::selections_equal(&a.sim, &b.sim, routers, prefixes) {
        return Err(format!("selections diverge between {a_name} and {b_name}"));
    }
    if a_trace != b_trace {
        let first_diff = a_trace
            .lines()
            .zip(b_trace.lines())
            .position(|(x, y)| x != y);
        return Err(format!(
            "obs traces diverge between {a_name} and {b_name} \
             ({} vs {} events, first difference at line {first_diff:?})",
            a_trace.lines().count(),
            b_trace.lines().count()
        ));
    }
    Ok(())
}

/// The wire-mode differential oracle (DESIGN.md §14): running the
/// scenario with every session message round-tripped through the BGP
/// byte codec (encode-decode-verify mode) must change *nothing* on
/// either the sequential or the AP-sharded engine. Codec bugs either
/// hard-fail inside the verify round-trip or surface here as a diff.
fn wire_invisible(
    loaded: &Loaded,
    mode: ModeSpec,
    routers: &[RouterId],
    prefixes: &[Ipv4Prefix],
) -> Result<(), String> {
    let _guard = OBS_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    for engine in [Engine::Seq, Engine::Sharded(2)] {
        let name = engine.name();
        let run = |wire| {
            let cfg = RunConfig {
                engine,
                wire,
                ..Default::default()
            };
            run_traced(loaded, mode, cfg)
        };
        same_run(
            &run(WireMode::Off)?,
            &format!("struct mode on {name}"),
            &run(WireMode::Verify)?,
            &format!("verify-wire mode on {name}"),
            routers,
            prefixes,
        )?;
    }
    Ok(())
}

/// The cross-engine oracle: the sequential oracle, the epoch-parallel
/// engine (2 workers), and the AP-sharded engine (2 shards) must agree
/// (DESIGN.md §10, §12).
fn engines_agree(
    loaded: &Loaded,
    mode: ModeSpec,
    routers: &[RouterId],
    prefixes: &[Ipv4Prefix],
) -> Result<(), String> {
    let _guard = OBS_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    let run = |engine| {
        let cfg = RunConfig {
            engine,
            ..Default::default()
        };
        run_traced(loaded, mode, cfg)
    };
    let seq = run(Engine::Seq)?;
    for engine in [Engine::Epoch(2), Engine::Sharded(2)] {
        let other = run(engine)?;
        same_run(&seq, "seq", &other, engine.name(), routers, prefixes)?;
    }
    Ok(())
}
