//! The typed experiment pipeline shared by the binaries under
//! `src/bin/`.
//!
//! Every experiment is the same machine with different knobs:
//!
//! ```text
//! spec ── workload ── sim ── auditors ── typed rows ── emitters
//! ```
//!
//! * **spec** — a [`Tier1Config`] from the binary's declared CLI knobs
//!   ([`tier1_config`]) and a `NetworkSpec` per scheme variant;
//! * **workload** — the initial RIB snapshot and optional churn/probe
//!   traces ([`Experiment::converge`], [`Run::churn`]);
//! * **sim** — the sequential event loop (`Sim::run`), in the
//!   session wire mode `--wire` selects;
//! * **auditors** — forwarding-loop and quiescence checks on the
//!   converged state ([`Run::count_loops`], [`Run::require_quiesced`]);
//! * **typed rows / emitters** — [`Table`] (fixed-width text) and
//!   [`JsonRow`] (one JSON object per line) render the measurements.
//!
//! A binary is then a *declaration* of its sweep: which schemes, which
//! knobs, which rows.

use crate::{
    converge_snapshot, counter_delta, fleet_stats, run_churn, Args, FleetStats, SETTLE_BUDGET_US,
};
use abrr::{BgpNode, NetworkSpec, UpdateCounters};
use bgp_types::{Ipv4Prefix, RouterId};
use netsim::{RunLimits, RunOutcome, Sim, Time, WireMode};
use std::sync::Arc;
use workload::{ChurnConfig, Tier1Config, Tier1Model};

/// Reads the standard Tier-1 model knobs (`--seed`, `--prefixes`,
/// `--pops`, `--rpp`) from `args` on top of `base` — each only where
/// the binary actually declares it, so a binary that pins its topology
/// shape simply omits the flag.
pub fn tier1_config(args: &Args, base: Tier1Config) -> Tier1Config {
    let mut cfg = base;
    if args.declared("seed") {
        cfg.seed = args.get("seed", cfg.seed);
    }
    if args.declared("prefixes") {
        cfg.n_prefixes = args.get("prefixes", cfg.n_prefixes);
    }
    if args.declared("pops") {
        cfg.n_pops = args.get("pops", cfg.n_pops);
    }
    if args.declared("rpp") {
        cfg.routers_per_pop = args.get("rpp", cfg.routers_per_pop);
    }
    cfg
}

/// One experiment invocation: the header has been printed and the
/// `--wire`, `--obs` and `--pcap` settings every run spawned from it
/// shares are fixed.
pub struct Experiment {
    /// The session wire mode (`--wire`) applied to every spec this
    /// invocation converges.
    pub wire: WireMode,
    /// Whether `--obs` turned the observability layer on; the
    /// [`Drop`] impl then emits the [`obs_report`].
    obs: bool,
    /// `--pcap` output path; the [`Drop`] impl drains the capture
    /// there.
    pcap: Option<String>,
}

impl Experiment {
    /// Prints the standard experiment header and fixes the shared
    /// settings from `args`. With `--obs`, turns on the
    /// metrics registry and engine profiling for the whole invocation.
    pub fn start(args: &Args, title: &str, detail: &str) -> Experiment {
        crate::header(title, detail);
        Self::from_args(args)
    }

    /// Wire, obs and pcap setup without the standard header, for utility
    /// binaries that own their output format.
    pub fn from_args(args: &Args) -> Experiment {
        let obs = args.obs();
        if obs {
            obs::metrics::set_enabled(true);
            obs::profile::set_enabled(true);
        }
        let pcap = args.pcap();
        if pcap.is_some() {
            obs::pcap::enable();
        }
        Experiment {
            wire: args.wire(),
            obs,
            pcap,
        }
    }

    /// Applies this invocation's `--wire` mode to `spec`. A no-op in
    /// the default off mode, so shared specs stay shared.
    pub fn apply_wire(&self, spec: &mut Arc<NetworkSpec>) {
        if spec.wire_mode != self.wire {
            Arc::make_mut(spec).wire_mode = self.wire;
        }
    }

    /// Spec + workload + sim stages in one step: builds the sim for
    /// `spec` (in this invocation's `--wire` mode), replays the initial
    /// RIB snapshot, and settles it.
    pub fn converge(&self, mut spec: Arc<NetworkSpec>, model: &Tier1Model) -> Run {
        self.apply_wire(&mut spec);
        let (sim, outcome) = converge_snapshot(spec, model, 1_000);
        let run = Run { sim, outcome };
        run.refresh_obs_gauges();
        run
    }
}

impl Drop for Experiment {
    fn drop(&mut self) {
        if self.obs {
            print!("{}", obs_report());
        }
        if let Some(path) = self.pcap.take() {
            obs::trace::flush_local();
            let n = obs::pcap::pending_packets();
            match std::fs::write(&path, obs::pcap::drain_file()) {
                Ok(()) => println!("# pcap: {n} packets -> {path}"),
                Err(e) => {
                    eprintln!("pcap: failed to write {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
}

/// Renders the end-of-experiment observability report: the metrics
/// snapshot (per-node series summed into totals), the per-run engine
/// profiles, and — when `ABRR_TRACE_FILE` names a path and tracing
/// was enabled via `ABRR_TRACE` — the drained event trace as JSONL.
pub fn obs_report() -> String {
    use std::fmt::Write as _;
    let mut out = String::from("\n## obs_report\n");
    let snap = obs::metrics::snapshot();
    if snap.is_empty() {
        out.push_str("metrics: (none recorded)\n");
    } else {
        out.push_str(&obs::metrics::render_snapshot(&snap));
    }
    let runs = obs::profile::take_runs();
    if !runs.is_empty() {
        out.push_str("engine runs:\n");
        out.push_str(&obs::profile::render_runs(&runs));
    }
    if let Ok(path) = std::env::var("ABRR_TRACE_FILE") {
        if !path.is_empty() {
            let jsonl = obs::trace::drain_jsonl();
            let n = jsonl.lines().count();
            match std::fs::write(&path, jsonl) {
                Ok(()) => writeln!(out, "trace: {n} events -> {path}").expect("write to String"),
                Err(e) => {
                    writeln!(out, "trace: failed to write {path}: {e}").expect("write to String")
                }
            }
        }
    }
    out
}

/// A live simulation mid-pipeline: the sim plus the outcome of its most
/// recent run segment.
pub struct Run {
    /// The simulator.
    pub sim: Sim<BgpNode>,
    /// Outcome of the latest segment (converge/churn/advance).
    pub outcome: RunOutcome,
}

impl Run {
    /// Auditor: asserts the last segment quiesced.
    pub fn require_quiesced(self, what: &str) -> Run {
        assert!(self.outcome.quiesced, "{what} did not converge");
        self
    }

    /// Opens a counter window over `nodes`: the delta stage of the
    /// measurement (see [`Window::delta`]).
    pub fn window(&self, nodes: &[RouterId]) -> Window {
        Window {
            nodes: nodes.to_vec(),
            base: fleet_stats(&self.sim, nodes),
        }
    }

    /// Workload stage: replays a churn trace and settles.
    pub fn churn(&mut self, model: &Tier1Model, cfg: &ChurnConfig) -> &RunOutcome {
        self.outcome = run_churn(&mut self.sim, model, cfg, 1);
        self.refresh_obs_gauges();
        &self.outcome
    }

    /// Sim stage: advances simulated time to `t` (time-sliced
    /// sampling loops).
    pub fn advance_to(&mut self, t: Time) -> &RunOutcome {
        self.outcome = self.sim.run(RunLimits {
            max_events: u64::MAX,
            max_time: t,
        });
        self.refresh_obs_gauges();
        &self.outcome
    }

    /// Publishes every node's per-role RIB occupancy into the obs
    /// registry (no-op with metrics disabled). Called after each run
    /// segment so the gauges reflect the settled state, never the hot
    /// path.
    pub fn refresh_obs_gauges(&self) {
        if !obs::metrics::enabled() {
            return;
        }
        for (_, node) in self.sim.nodes() {
            node.record_obs_gauges();
        }
    }

    /// Sim stage: settles for the standard budget from now.
    pub fn settle(&mut self) -> &RunOutcome {
        let t = self.sim.now() + SETTLE_BUDGET_US;
        self.advance_to(t)
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.sim.now()
    }

    /// Auditor: forwarding-loop count over `prefixes` (paper §2.3).
    pub fn count_loops(&self, spec: &NetworkSpec, prefixes: &[Ipv4Prefix]) -> usize {
        abrr::audit::count_loops(&self.sim, spec, prefixes)
    }
}

/// A baseline counter snapshot over a node fleet; [`Window::delta`]
/// against the same run yields the activity since the window opened.
pub struct Window {
    nodes: Vec<RouterId>,
    base: FleetStats,
}

impl Window {
    /// Counters accumulated by the fleet since this window opened.
    pub fn delta(&self, run: &Run) -> UpdateCounters {
        counter_delta(&self.base, &fleet_stats(&run.sim, &self.nodes))
    }

    /// Fleet size as a divisor for per-node rates.
    pub fn n(&self) -> f64 {
        self.nodes.len() as f64
    }

    /// The baseline snapshot (RIB sizes at open time).
    pub fn base(&self) -> &FleetStats {
        &self.base
    }
}

// ---------------------------------------------------------------------------
// Typed rows: fixed-width text tables.

/// Column alignment within a [`Table`].
pub enum Align {
    /// Left-aligned (labels).
    Left,
    /// Right-aligned (numbers; the default constructors).
    Right,
}

/// One column of a [`Table`].
pub struct Col {
    header: &'static str,
    width: usize,
    align: Align,
}

/// Right-aligned column (numeric).
pub const fn col(header: &'static str, width: usize) -> Col {
    Col {
        header,
        width,
        align: Align::Right,
    }
}

/// Left-aligned column (labels).
pub const fn lcol(header: &'static str, width: usize) -> Col {
    Col {
        header,
        width,
        align: Align::Left,
    }
}

/// One typed cell of a table row.
pub enum Cell {
    /// Verbatim text.
    Text(String),
    /// Unsigned count.
    U(u64),
    /// Signed count (baseline-corrected deltas can go negative).
    I(i64),
    /// Float rendered at the given precision.
    F(f64, usize),
}

/// Text cell.
pub fn t(s: impl Into<String>) -> Cell {
    Cell::Text(s.into())
}

/// Unsigned-count cell.
pub fn u(v: u64) -> Cell {
    Cell::U(v)
}

/// Signed-count cell.
pub fn i(v: i64) -> Cell {
    Cell::I(v)
}

/// Float cell at `prec` decimal places.
pub fn f(v: f64, prec: usize) -> Cell {
    Cell::F(v, prec)
}

impl Cell {
    fn render(&self) -> String {
        match self {
            Cell::Text(s) => s.clone(),
            Cell::U(v) => v.to_string(),
            Cell::I(v) => v.to_string(),
            Cell::F(v, p) => format!("{v:.p$}"),
        }
    }
}

/// A fixed-width text table: the row emitter of the pipeline. Cells are
/// typed; layout lives here so every binary prints the same way.
pub struct Table {
    cols: Vec<Col>,
}

impl Table {
    /// Builds a table from its column layout.
    pub fn new(cols: Vec<Col>) -> Table {
        Table { cols }
    }

    /// Prints the header row, preceded by a blank line.
    pub fn header(&self) {
        println!();
        self.row(
            &self
                .cols
                .iter()
                .map(|c| Cell::Text(c.header.to_string()))
                .collect::<Vec<_>>(),
        );
    }

    /// Prints one row; `cells` must match the column count.
    pub fn row(&self, cells: &[Cell]) {
        assert_eq!(cells.len(), self.cols.len(), "row/column arity mismatch");
        let line: Vec<String> = cells
            .iter()
            .zip(&self.cols)
            .map(|(cell, col)| {
                let s = cell.render();
                let w = col.width;
                match col.align {
                    Align::Left => format!("{s:<w$}"),
                    Align::Right => format!("{s:>w$}"),
                }
            })
            .collect();
        println!("{}", line.join(" ").trim_end());
    }
}

// ---------------------------------------------------------------------------
// Emitters: one JSON object per line (the `scale` bin's format).

/// Ordered JSON-object builder: one measurement row, emitted as a
/// single line to stdout and optionally appended to a file.
pub struct JsonRow {
    parts: Vec<String>,
}

impl JsonRow {
    /// Empty object.
    pub fn new() -> JsonRow {
        JsonRow { parts: Vec::new() }
    }

    /// String field, escaped as RFC 8259 §7 requires: quotes,
    /// backslashes and every control character U+0000–U+001F.
    pub fn str(mut self, k: &str, v: &str) -> Self {
        let mut escaped = String::with_capacity(v.len());
        for c in v.chars() {
            match c {
                '"' => escaped.push_str("\\\""),
                '\\' => escaped.push_str("\\\\"),
                '\n' => escaped.push_str("\\n"),
                '\r' => escaped.push_str("\\r"),
                '\t' => escaped.push_str("\\t"),
                c if c < '\u{20}' => escaped.push_str(&format!("\\u{:04x}", c as u32)),
                c => escaped.push(c),
            }
        }
        self.parts.push(format!("\"{k}\":\"{escaped}\""));
        self
    }

    /// Unsigned-integer field.
    pub fn u64(mut self, k: &str, v: u64) -> Self {
        self.parts.push(format!("\"{k}\":{v}"));
        self
    }

    /// `usize` field.
    pub fn usize(self, k: &str, v: usize) -> Self {
        self.u64(k, v as u64)
    }

    /// Float field at `prec` decimal places.
    pub fn f64(mut self, k: &str, v: f64, prec: usize) -> Self {
        self.parts.push(format!("\"{k}\":{v:.prec$}"));
        self
    }

    /// Boolean field.
    pub fn bool(mut self, k: &str, v: bool) -> Self {
        self.parts.push(format!("\"{k}\":{v}"));
        self
    }

    /// Renders the object as one line.
    pub fn to_line(&self) -> String {
        format!("{{{}}}", self.parts.join(","))
    }

    /// Prints the line and, when `out` names a file, appends it there.
    /// `Args` opened that file at startup; a write that fails anyway
    /// exits 1.
    pub fn emit(&self, out: Option<&str>) {
        use std::io::Write as _;
        let line = self.to_line();
        println!("{line}");
        if let Some(path) = out {
            let appended = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut f| writeln!(f, "{line}"));
            if let Err(e) = appended {
                eprintln!("--out: failed to append to {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

impl Default for JsonRow {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------------
// The Figure 4/5 analytical sweep, shared by both binaries.

/// One panel of the Figure 4/5 sweeps.
pub struct Panel {
    /// Panel caption.
    pub title: &'static str,
    /// Swept rows.
    pub rows: Vec<analysis::SweepRow>,
    /// Truncate the TBRR columns past this x (Figure 5 panel (b)).
    pub truncate_tbrr_after: Option<f64>,
}

/// The paper's four panels — (a) routers, (b) APs/clusters, (c) RRs per
/// AP/cluster, (d) peer ASes — for the given RIB metric.
/// `extended_partitions` extends panel (b) to 400 and truncates its
/// TBRR columns at 100 clusters ("the number of clusters is generally
/// limited by the number of major PoPs"), as Figure 5 does.
pub fn rib_panels(metric: analysis::Metric, extended_partitions: bool) -> Vec<Panel> {
    let reg = analysis::BalRegression::PAPER;
    let base = analysis::Params::paper_default(reg.eval(30.0));
    let partition_xs: &[f64] = if extended_partitions {
        &[5.0, 10.0, 25.0, 50.0, 100.0, 200.0, 400.0]
    } else {
        &[5.0, 10.0, 25.0, 50.0, 100.0, 200.0]
    };
    vec![
        Panel {
            title: "(a) # routers (RIB sizes are independent of it)",
            rows: analysis::sweep(base, &[500.0, 1000.0, 2000.0, 4000.0], metric, |_, _| {}),
            truncate_tbrr_after: None,
        },
        Panel {
            title: if extended_partitions {
                "(b) # APs / clusters (TBRR truncated at 100 clusters)"
            } else {
                "(b) # APs / clusters"
            },
            rows: analysis::sweep(base, partition_xs, metric, |p, x| {
                p.partitions = x;
                p.rrs = 2.0 * x;
            }),
            truncate_tbrr_after: if extended_partitions {
                Some(100.0)
            } else {
                None
            },
        },
        Panel {
            title: "(c) # ARRs/TRRs per AP/cluster",
            rows: analysis::sweep(base, &[1.0, 2.0, 3.0, 4.0, 6.0], metric, |p, x| {
                p.rrs = x * p.partitions;
            }),
            truncate_tbrr_after: None,
        },
        Panel {
            title: "(d) # peer ASes",
            rows: analysis::sweep(base, &[5.0, 10.0, 20.0, 30.0, 40.0], metric, |p, x| {
                p.bal = reg.eval(x);
            }),
            truncate_tbrr_after: None,
        },
    ]
}

/// Prints one Figure 4/5 panel as a typed-row table.
pub fn print_panel(p: &Panel) {
    println!("\n## {}", p.title);
    let table = Table::new(vec![
        col("x", 10),
        col("ABRR", 14),
        col("TBRR", 14),
        col("TBRR-multi", 14),
    ]);
    table.row(&[t("x"), t("ABRR"), t("TBRR"), t("TBRR-multi")]);
    for r in &p.rows {
        let show_tbrr = p.truncate_tbrr_after.map(|tr| r.x <= tr).unwrap_or(true);
        if show_tbrr {
            table.row(&[f(r.x, 0), f(r.abrr, 0), f(r.tbrr, 0), f(r.tbrr_multi, 0)]);
        } else {
            table.row(&[f(r.x, 0), f(r.abrr, 0), t("-"), t("-")]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_row_escapes_control_characters() {
        let row = JsonRow::new().str("label", "a\tb\n\"c\"\u{1}\\");
        assert_eq!(row.to_line(), r#"{"label":"a\tb\n\"c\"\u0001\\"}"#);
    }
}
