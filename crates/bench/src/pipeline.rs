//! The typed experiment pipeline every `repro` experiment runs on.
//!
//! Every experiment is the same machine with different knobs:
//!
//! ```text
//! spec ── workload ── sim ── auditors ── typed rows ── emitters
//! ```
//!
//! * **spec** — a [`Tier1Config`](workload::Tier1Config) from the
//!   experiment's declared CLI knobs ([`Args::tier1`]) and a
//!   `NetworkSpec` per scheme variant;
//! * **workload** — the initial RIB snapshot and optional churn/probe
//!   traces ([`Experiment::converge`], [`Run::churn`]);
//! * **sim** — the sequential event loop (`Sim::run`), in the
//!   session wire mode `--wire` selects;
//! * **auditors** — forwarding-loop and quiescence checks on the
//!   converged state (`abrr::audit`, [`Run::require_quiesced`]);
//! * **typed rows / emitters** — [`Table`] renders each row once as
//!   fixed-width text and, for its keyed columns, as one JSON object.
//!
//! An experiment is then a *declaration* of its sweep: which schemes,
//! which knobs, which rows.

use crate::cli::Args;
use crate::experiments::Def;
use crate::{counter_delta, fleet_stats, FleetStats, SETTLE_BUDGET_US};
use abrr::{BgpNode, NetworkSpec, UpdateCounters};
use bgp_types::RouterId;
use netsim::{RunLimits, RunOutcome, Sim, Time, WireMode};
use std::sync::Arc;
use workload::{churn, regen, ChurnConfig, Tier1Model};

/// One experiment invocation: its parsed flags plus the `--wire`,
/// `--obs` and `--pcap` settings every run spawned from it shares.
pub struct Experiment {
    /// The experiment's parsed flags.
    pub args: Args,
    /// The session wire mode (`--wire`) applied to every spec this
    /// invocation converges.
    pub wire: WireMode,
    /// The experiment's one-line description, its header's title.
    title: &'static str,
    /// Whether `--obs` turned the observability layer on; the
    /// [`Drop`] impl then emits the obs report.
    obs: bool,
    /// `--pcap` output path; the [`Drop`] impl drains the capture
    /// there.
    pcap: Option<String>,
}

impl Experiment {
    /// Parses `argv` for `def` and fixes the shared settings. With
    /// `--obs`, turns on the metrics registry and engine profiling for
    /// the whole invocation.
    pub fn new(def: &Def, argv: impl Iterator<Item = String>) -> Experiment {
        let args = Args::parse(def, argv);
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
            args,
            title: def.about,
            obs,
            pcap,
        }
    }

    /// Prints the standard experiment header: the title, then `detail`
    /// (seed/scale provenance).
    pub fn header(&self, detail: &str) {
        println!("# {}", self.title);
        println!("# {detail}");
    }

    /// Spec + workload + sim stages in one step: builds the sim for
    /// `spec` (in this invocation's `--wire` mode), replays the initial
    /// RIB snapshot at high speed, and settles it.
    pub fn converge(&self, mut spec: Arc<NetworkSpec>, model: &Tier1Model) -> Run {
        // A no-op in the default off mode, so shared specs stay shared.
        if spec.wire_mode != self.wire {
            Arc::make_mut(&mut spec).wire_mode = self.wire;
        }
        let mut sim = abrr::build_sim(spec);
        regen::replay(&mut sim, &churn::initial_snapshot(model), 1_000);
        let outcome = sim.run(RunLimits {
            max_events: u64::MAX,
            max_time: SETTLE_BUDGET_US,
        });
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
fn obs_report() -> String {
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

    /// Workload stage: replays a generated churn trace in real trace
    /// time and runs until it quiesces or the standard budget past the
    /// trace's end runs out.
    pub fn churn(&mut self, model: &Tier1Model, cfg: &ChurnConfig) -> &RunOutcome {
        let trace = churn::generate(model, cfg);
        let deadline = self.now() + cfg.duration_us + SETTLE_BUDGET_US;
        regen::replay(&mut self.sim, &trace, 1);
        self.advance_to(deadline)
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
}

// ---------------------------------------------------------------------------
// Typed rows: one declaration, rendered as fixed-width text and as JSON.

/// Column alignment within a [`Table`].
#[derive(Clone, Copy)]
pub enum Align {
    /// Left-aligned (labels).
    Left,
    /// Right-aligned (numbers; the default constructors).
    Right,
}

/// One column of a [`Table`]: a text column, a JSON field, or both.
pub struct Col {
    header: &'static str,
    /// Width and alignment in the text table; `None` for a JSON-only
    /// field.
    text: Option<(usize, Align)>,
    /// JSON key; `None` for a text-only column.
    key: Option<&'static str>,
}

/// Right-aligned text column (numeric).
pub const fn col(header: &'static str, width: usize) -> Col {
    Col {
        header,
        text: Some((width, Align::Right)),
        key: None,
    }
}

/// Left-aligned text column (labels).
pub const fn lcol(header: &'static str, width: usize) -> Col {
    Col {
        header,
        text: Some((width, Align::Left)),
        key: None,
    }
}

/// JSON-only field (run metadata the text table leaves out).
pub const fn key(key: &'static str) -> Col {
    Col {
        header: key,
        text: None,
        key: Some(key),
    }
}

impl Col {
    /// This text column, also emitted as the JSON field `key`.
    pub const fn json(self, key: &'static str) -> Col {
        Col {
            key: Some(key),
            ..self
        }
    }
}

/// One typed cell of a table row.
pub enum Cell {
    /// Verbatim text (a JSON string).
    Text(String),
    /// Unsigned count.
    U(u64),
    /// Signed count (baseline-corrected deltas can go negative).
    I(i64),
    /// Float rendered at the given precision.
    F(f64, usize),
    /// Boolean.
    B(bool),
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
            Cell::B(v) => v.to_string(),
        }
    }

    /// The cell as a JSON value. Strings are escaped as RFC 8259 §7
    /// requires: quotes, backslashes and every control character
    /// U+0000–U+001F.
    fn json(&self) -> String {
        let Cell::Text(v) = self else {
            return self.render();
        };
        let mut escaped = String::with_capacity(v.len() + 2);
        escaped.push('"');
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
        escaped.push('"');
        escaped
    }
}

/// A table of typed rows: the row emitter of the pipeline. Cells are
/// typed; layout lives here so every experiment prints the same way,
/// and a row is declared once for both its text and its JSON form.
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
        self.header_row();
    }

    /// Prints the header row alone.
    pub fn header_row(&self) {
        let cells: Vec<Cell> = self.cols.iter().map(|c| t(c.header)).collect();
        self.row(&cells);
    }

    /// Prints one row's text columns; `cells` must match the column
    /// count.
    pub fn row(&self, cells: &[Cell]) {
        assert_eq!(cells.len(), self.cols.len(), "row/column arity mismatch");
        let line: Vec<String> = cells
            .iter()
            .zip(&self.cols)
            .filter_map(|(cell, col)| {
                let (w, align) = col.text?;
                let s = cell.render();
                Some(match align {
                    Align::Left => format!("{s:<w$}"),
                    Align::Right => format!("{s:>w$}"),
                })
            })
            .collect();
        println!("{}", line.join(" ").trim_end());
    }

    /// One row's keyed columns as a JSON object.
    pub fn json(&self, cells: &[Cell]) -> JsonRow {
        assert_eq!(cells.len(), self.cols.len(), "row/column arity mismatch");
        let mut row = JsonRow::new();
        for (cell, col) in cells.iter().zip(&self.cols) {
            if let Some(k) = col.key {
                row = row.cell(k, cell);
            }
        }
        row
    }
}

// ---------------------------------------------------------------------------
// Emitters: one JSON object per line.

/// Ordered JSON-object builder: one measurement row, emitted as a
/// single line to stdout and optionally appended to a file.
#[derive(Default)]
pub struct JsonRow {
    parts: Vec<String>,
}

impl JsonRow {
    /// Empty object.
    pub fn new() -> JsonRow {
        JsonRow::default()
    }

    /// Field `k` holding `v`.
    pub fn cell(mut self, k: &str, v: &Cell) -> Self {
        self.parts.push(format!("\"{k}\":{}", v.json()));
        self
    }

    /// String field.
    pub fn str(self, k: &str, v: &str) -> Self {
        self.cell(k, &t(v))
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_row_escapes_control_characters() {
        let row = JsonRow::new().str("label", "a\tb\n\"c\"\u{1}\\");
        assert_eq!(row.to_line(), r#"{"label":"a\tb\n\"c\"\u0001\\"}"#);
    }
}
