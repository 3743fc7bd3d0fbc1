//! The reproduction scorecard: every claim of the paper's evaluation,
//! declared once as a [`Row`] — the paper's value, where the
//! measurement sits in `results/`, and the rule that turns the two into
//! a status.
//!
//! `repro scorecard` runs no simulation. It reads the artefacts the
//! other experiments wrote to `results/` (relative to the working
//! directory) and prints one line per row, the `results/scorecard.txt`
//! artefact. It is the last entry of the registry, so
//! `scripts/results.sh` rewrites it after the files it reads, and
//! `--check` fails when a status or a number it quotes drifts. A number
//! it cannot find or parse is an error naming the file and the
//! locator: exit 1, no scorecard.

use super::correctness::OSC_BUDGET;
use super::Def;
use crate::pipeline::{lcol, t, Experiment, Table};
use std::path::Path;
use workload::Tier1Config;

pub const DEF: Def = Def {
    name: "scorecard",
    about: "Reproduction scorecard — each paper claim against its results/ artefact",
    flags: &[],
    base: Tier1Config::default,
    artefacts: &[("scorecard.txt", "")],
    run,
};

/// One number of an artefact: the `nth` number after `label` on the
/// first line that starts with `label`, under the section heading
/// `within`.
#[derive(Clone, Copy, Debug)]
struct Loc {
    /// The artefact, a file in `results/`.
    file: &'static str,
    /// The `## ` heading the line sits under, up to the next one; empty
    /// for the whole file.
    within: &'static str,
    /// The line's text, leading blanks aside, up to its first number. A
    /// label matches only whole: `ABRR #APs=1` is not a label of
    /// `ABRR #APs=16 ...`.
    label: &'static str,
    /// Which number after the label, from 0. A number is a blank- or
    /// slash-separated token holding a digit; brackets, `>`, `~`, `=`
    /// before it and `)`, `]`, `,`, `;`, `:`, `x`, `%`, `s` after it are
    /// not part of it.
    nth: usize,
}

/// A quantity: read from artefacts, or stated by the row.
#[derive(Clone, Copy, Debug)]
enum Q {
    /// The number at a locator.
    At(Loc),
    /// One number over another.
    Ratio(Loc, Loc),
    /// A percentage at a locator, as a fraction.
    Pct(Loc),
    /// A constant of the claim.
    C(f64),
    /// A column: on every line of an artefact that, after its leading
    /// blanks and a prefix, starts with a number (the row's key), the
    /// `nth` number after that key. Compared with a single quantity,
    /// every row is; with another column of the same table, row by row.
    Col(&'static str, &'static str, usize),
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Op {
    Eq,
    Lt,
    Le,
    Gt,
}

/// How a row's measurement becomes a status.
#[derive(Clone, Copy, Debug)]
enum Rule {
    /// Each measured quantity equals its theory: ✅, or ❌.
    Exact(&'static [(Q, Q)]),
    /// A measured quantity against the paper's number: ✅ on the paper's
    /// side of 1 and within 2× of it, ◐ on its side of 1 only, ❌
    /// otherwise (exactly 1 is on neither side).
    Factor { paper: f64, measured: Q },
    /// Every stated comparison over artefact numbers holds: ✅, or ❌.
    Holds(&'static [(Q, Op, Q)]),
    /// No artefact measures the claim; the named test gates it.
    Test(&'static str),
}

/// One scorecard row.
struct Row {
    section: &'static str,
    claim: &'static str,
    rule: Rule,
}

const fn n(file: &'static str, label: &'static str, nth: usize) -> Loc {
    n_in(file, "", label, nth)
}

const fn at(file: &'static str, label: &'static str, nth: usize) -> Q {
    At(n(file, label, nth))
}

const fn at_in(file: &'static str, within: &'static str, label: &'static str, nth: usize) -> Q {
    At(n_in(file, within, label, nth))
}

const fn n_in(file: &'static str, within: &'static str, label: &'static str, nth: usize) -> Loc {
    Loc {
        file,
        within,
        label,
        nth,
    }
}

use Op::{Gt, Le, Lt};
use Q::{At, Col, Ratio, C};

const FIG3: &str = "fig3.txt";
const FIG4: &str = "fig4.txt";
const FIG5: &str = "fig5.txt";
const FIG6: &str = "fig6.txt";
const FIG6_BAL: &str = "fig6_balanced.txt";
const FIG7: &str = "fig7.txt";
const UPDATES: &str = "table_updates.txt";
const EVENTS: &str = "event_trace.txt";
const CONV: &str = "convergence.txt";
const CORR: &str = "correctness.txt";
const RESIL: &str = "resilience.txt";
const SESSIONS: &str = "sessions.txt";

const MED: &str = "## med-gadget";
const TOPO: &str = "## topology-gadget";
const QUIET: &str = "## quiet failover";
const ANALYTICAL: &str = "## analytical";

/// ABRR's number at `x` over its number at `y`, in one fig4/fig5 panel.
const fn panel_ratio(
    file: &'static str,
    panel: &'static str,
    x: &'static str,
    y: &'static str,
) -> Q {
    Ratio(n_in(file, panel, x, 0), n_in(file, panel, y, 0))
}

/// The correctness gadget verdict of `scheme`: its event count (0) or
/// its forwarding-loop count (1).
const fn gadget(within: &'static str, scheme: &'static str, nth: usize) -> Q {
    at_in(CORR, within, scheme, nth)
}

/// The event budget the correctness gadgets run to: a run that reaches
/// it oscillates.
const OSCILLATES: Q = C(OSC_BUDGET.max_events as f64);

/// Every scorecard row, in EXPERIMENTS.md's section order.
const ROWS: &[Row] = &[
    Row {
        section: "Fig 3",
        claim: "avg #BAL per peer prefix, all 25 peer ASes",
        rule: Rule::Factor {
            paper: 10.2,
            measured: at(
                FIG3,
                "measured avg #BAL over peer prefixes with all peers:",
                0,
            ),
        },
    },
    Row {
        section: "Fig 3",
        claim: "All Sources rises with #peer ASes (0 < 12 < 24)",
        rule: Rule::Holds(&[
            (at(FIG3, "0", 1), Lt, at(FIG3, "12", 1)),
            (at(FIG3, "12", 1), Lt, at(FIG3, "24", 1)),
        ]),
    },
    Row {
        section: "Fig 3",
        claim: "diversity comes from peers: peer-only at 2 > All Sources at 0",
        rule: Rule::Holds(&[(at(FIG3, "2", 0), Gt, at(FIG3, "0", 1))]),
    },
    Row {
        section: "Fig 4",
        claim: "ABRR RIB-In < TBRR and TBRR-multi on every panel row",
        rule: Rule::Holds(&[
            (Col(FIG4, "", 0), Lt, Col(FIG4, "", 1)),
            (Col(FIG4, "", 0), Lt, Col(FIG4, "", 2)),
        ]),
    },
    Row {
        section: "Fig 4",
        claim: "(a) flat in #routers: 500 routers = 4000, ABRR and TBRR",
        rule: Rule::Exact(&[
            (at(FIG4, "500", 0), at(FIG4, "4000", 0)),
            (at(FIG4, "500", 1), at(FIG4, "4000", 1)),
        ]),
    },
    Row {
        section: "Fig 4",
        claim: "(b) diminishing returns: 5→10 APs saves more than 50→100",
        rule: Rule::Holds(&[(
            panel_ratio(FIG4, "## (b)", "5", "10"),
            Gt,
            panel_ratio(FIG4, "## (b)", "50", "100"),
        )]),
    },
    Row {
        section: "Fig 4",
        claim: "(c) redundancy dominates: 2→4 ARRs/AP costs more than 50→5 APs",
        rule: Rule::Holds(&[(
            panel_ratio(FIG4, "## (c)", "4", "2"),
            Gt,
            panel_ratio(FIG4, "## (b)", "5", "50"),
        )]),
    },
    Row {
        section: "Fig 5",
        claim: "(a) flat in #routers: 500 routers = 4000, ABRR and TBRR",
        rule: Rule::Exact(&[
            (at(FIG5, "500", 0), at(FIG5, "4000", 0)),
            (at(FIG5, "500", 1), at(FIG5, "4000", 1)),
        ]),
    },
    Row {
        section: "Fig 5",
        claim: "(b) ARR RIB-Out ∝ 1/#APs from 5 to 400 APs",
        rule: Rule::Exact(&[
            (panel_ratio(FIG5, "## (b)", "5", "10"), C(2.0)),
            (panel_ratio(FIG5, "## (b)", "10", "25"), C(2.5)),
            (panel_ratio(FIG5, "## (b)", "25", "50"), C(2.0)),
            (panel_ratio(FIG5, "## (b)", "50", "100"), C(2.0)),
            (panel_ratio(FIG5, "## (b)", "100", "200"), C(2.0)),
            (panel_ratio(FIG5, "## (b)", "200", "400"), C(2.0)),
        ]),
    },
    Row {
        section: "Fig 6",
        claim: "ARR RIB-In avg = analysis at every #APs",
        rule: Rule::Exact(&[(Col(FIG6, "ABRR #APs=", 1), Col(FIG6, "ABRR #APs=", 3))]),
    },
    Row {
        section: "Fig 6",
        claim: "ARR RIB-Out avg = analysis at every #APs",
        rule: Rule::Exact(&[(Col(FIG6, "ABRR #APs=", 5), Col(FIG6, "ABRR #APs=", 7))]),
    },
    Row {
        section: "Fig 6",
        claim: "uniform APs: RIB-Out max ÷ avg at 4 APs",
        rule: Rule::Factor {
            paper: 1.5,
            measured: Ratio(n(FIG6, "ABRR #APs=4", 6), n(FIG6, "ABRR #APs=4", 5)),
        },
    },
    Row {
        section: "Fig 6",
        claim: "balanced APs narrow the 4-AP RIB-Out min/max spread",
        rule: Rule::Holds(&[
            (
                at(FIG6_BAL, "ABRR #APs=4", 6),
                Lt,
                at(FIG6, "ABRR #APs=4", 6),
            ),
            (
                at(FIG6_BAL, "ABRR #APs=4", 4),
                Gt,
                at(FIG6, "ABRR #APs=4", 4),
            ),
        ]),
    },
    Row {
        section: "Fig 6",
        claim: "TRR RIB-In, experimental ÷ analysis",
        rule: Rule::Factor {
            paper: 0.651,
            measured: Ratio(n(FIG6, "TBRR #C=13", 1), n(FIG6, "TBRR #C=13", 3)),
        },
    },
    Row {
        section: "Fig 6",
        claim: "TRR RIB-Out, experimental ÷ analysis",
        rule: Rule::Factor {
            paper: 0.866,
            measured: Ratio(n(FIG6, "TBRR #C=13", 5), n(FIG6, "TBRR #C=13", 7)),
        },
    },
    Row {
        section: "Fig 6",
        claim: "ARR RIBs < TRR RIBs: 16 APs against 13 clusters",
        rule: Rule::Holds(&[
            (at(FIG6, "ABRR #APs=16", 1), Lt, at(FIG6, "TBRR #C=13", 1)),
            (at(FIG6, "ABRR #APs=16", 5), Lt, at(FIG6, "TBRR #C=13", 5)),
        ]),
    },
    Row {
        section: "Fig 7",
        claim: "ARR generated shrinks with each doubling of #APs, 1 to 32",
        rule: Rule::Holds(&[
            (at(FIG7, "ABRR #APs=2", 1), Lt, at(FIG7, "ABRR #APs=1", 1)),
            (at(FIG7, "ABRR #APs=4", 1), Lt, at(FIG7, "ABRR #APs=2", 1)),
            (at(FIG7, "ABRR #APs=8", 1), Lt, at(FIG7, "ABRR #APs=4", 1)),
            (at(FIG7, "ABRR #APs=16", 1), Lt, at(FIG7, "ABRR #APs=8", 1)),
            (at(FIG7, "ABRR #APs=32", 1), Lt, at(FIG7, "ABRR #APs=16", 1)),
        ]),
    },
    Row {
        section: "Fig 7",
        claim: "ARR generated at 16 APs < TRR generated",
        rule: Rule::Holds(&[(at(FIG7, "ABRR #APs=16", 1), Lt, at(FIG7, "TBRR #C=13", 1))]),
    },
    Row {
        section: "Fig 7",
        claim: "ARR received rises at low #APs (1 → 2 APs)",
        rule: Rule::Holds(&[(at(FIG7, "ABRR #APs=1", 0), Lt, at(FIG7, "ABRR #APs=2", 0))]),
    },
    Row {
        section: "Fig 7",
        claim: "TRR received > ARR received at any #APs",
        rule: Rule::Holds(&[(at(FIG7, "TBRR #C=13", 0), Gt, at(FIG7, "ABRR #APs=1", 0))]),
    },
    Row {
        section: "§4.2",
        claim: "TRR/ARR updates transmitted per RR per s",
        rule: Rule::Factor {
            paper: 2.5,
            measured: at(UPDATES, "TRR/ARR transmitted-update ratio", 0),
        },
    },
    Row {
        section: "§4.2",
        claim: "ARR/TRR bytes transmitted per RR per s",
        rule: Rule::Factor {
            paper: 4.0,
            measured: at(UPDATES, "ARR/TRR transmitted-bytes ratio", 0),
        },
    },
    Row {
        section: "§4.2",
        claim: "ABRR/TBRR updates received per client, over churn",
        rule: Rule::Factor {
            paper: 0.70,
            measured: Q::Pct(n(UPDATES, "ABRR client received updates", 0)),
        },
    },
    Row {
        section: "§4.2",
        claim: "ABRR/TBRR updates received per client, per isolated event",
        rule: Rule::Factor {
            paper: 0.70,
            measured: Ratio(n(EVENTS, "ABRR", 4), n(EVENTS, "TBRR", 4)),
        },
    },
    Row {
        section: "§4.2",
        claim: "one update per ARR per event: ARR fleet gen/ev ≤ 2 < TRR's",
        rule: Rule::Holds(&[
            (at(EVENTS, "ABRR", 0), Le, C(2.0)),
            (at(EVENTS, "ABRR", 0), Lt, at(EVENTS, "TBRR", 0)),
        ]),
    },
    Row {
        section: "§3.5",
        claim: "unpaced probe latency sub-second, both schemes",
        rule: Rule::Holds(&[
            (at(CONV, "ABRR", 0), Lt, C(1.0)),
            (at(CONV, "TBRR", 0), Lt, C(1.0)),
        ]),
    },
    Row {
        section: "§3.5",
        claim: "MRAI-paced TBRR/ABRR probe latency (3 iBGP hops vs 2)",
        rule: Rule::Factor {
            paper: 1.5,
            measured: at(CONV, "paced TBRR/ABRR mean probe latency ratio:", 0),
        },
    },
    Row {
        section: "§2.3",
        claim: "MED gadget: single-path TBRR oscillates, ABRR converges",
        rule: Rule::Holds(&[
            (OSCILLATES, Le, gadget(MED, "Tbrr { multipath: false }", 0)),
            (gadget(MED, "Abrr", 0), Lt, OSCILLATES),
            (gadget(MED, "FullMesh", 0), Lt, OSCILLATES),
        ]),
    },
    Row {
        section: "§2.3",
        claim: "topology gadget: single-path TBRR oscillates, ABRR converges",
        rule: Rule::Holds(&[
            (OSCILLATES, Le, gadget(TOPO, "Tbrr { multipath: false }", 0)),
            (gadget(TOPO, "Abrr", 0), Lt, OSCILLATES),
            (gadget(TOPO, "FullMesh", 0), Lt, OSCILLATES),
        ]),
    },
    Row {
        section: "§2.3",
        claim: "ABRR exits = full-mesh exits on both gadgets",
        rule: Rule::Exact(&[
            (
                at_in(CORR, MED, "ABRR vs full-mesh exits:", 0),
                at_in(CORR, MED, "ABRR vs full-mesh exits:", 1),
            ),
            (
                at_in(CORR, TOPO, "ABRR vs full-mesh exits:", 0),
                at_in(CORR, TOPO, "ABRR vs full-mesh exits:", 1),
            ),
        ]),
    },
    Row {
        section: "§2.3",
        claim: "no forwarding loops in any converged gadget run",
        rule: Rule::Exact(&[
            (gadget(MED, "FullMesh", 1), C(0.0)),
            (gadget(MED, "Abrr", 1), C(0.0)),
            (gadget(MED, "Tbrr { multipath: true }", 1), C(0.0)),
            (gadget(TOPO, "FullMesh", 1), C(0.0)),
            (gadget(TOPO, "Abrr", 1), C(0.0)),
            (gadget(TOPO, "Tbrr { multipath: true }", 1), C(0.0)),
        ]),
    },
    Row {
        section: "§2.3",
        claim: "a reflected bit prevents re-reflection loops",
        rule: Rule::Test("crates/core/tests/misconfig.rs"),
    },
    Row {
        section: "§2.4",
        claim: "AP-by-AP transition: no blackholes or loops at any stage",
        rule: Rule::Test("crates/core/tests/transition.rs"),
    },
    Row {
        section: "§3.3",
        claim: "sessions per ARR in a 1000-router AS, at 5 APs",
        rule: Rule::Holds(&[(at_in(SESSIONS, ANALYTICAL, "5", 0), Gt, C(1000.0))]),
    },
    Row {
        section: "§3.3",
        claim: "sessions per TRR, on average",
        rule: Rule::Factor {
            paper: 100.0,
            measured: at_in(SESSIONS, ANALYTICAL, "5", 1),
        },
    },
    Row {
        section: "§3.3",
        claim: "sessions per client: 20–30 at 10–15 APs (ABRR), 2 (TBRR)",
        rule: Rule::Exact(&[
            (at_in(SESSIONS, ANALYTICAL, "10", 2), C(20.0)),
            (at_in(SESSIONS, ANALYTICAL, "15", 2), C(30.0)),
            (at_in(SESSIONS, ANALYTICAL, "10", 3), C(2.0)),
        ]),
    },
    Row {
        section: "§2.2",
        claim: "ABRR = full-mesh exits on random networks and flap sequences",
        rule: Rule::Test("crates/core/tests/equivalence.rs"),
    },
    Row {
        section: "§2.2",
        claim: "ARR kill: 0 updates generated, 0 blackholed pairs (quiet)",
        rule: Rule::Exact(&[
            (at_in(RESIL, QUIET, "ABRR (ARR kill)", 1), C(0.0)),
            (at_in(RESIL, QUIET, "ABRR (ARR kill)", 3), C(0.0)),
        ]),
    },
    Row {
        section: "§2.2",
        claim: "no forwarding loops on any quiet post-kill audit",
        rule: Rule::Exact(&[
            (at_in(RESIL, QUIET, "ABRR (ARR kill)", 4), C(0.0)),
            // Its reconvergence column reads `no quiesce`, not a number.
            (at_in(RESIL, QUIET, "TBRR (TRR kill)", 3), C(0.0)),
            (at_in(RESIL, QUIET, "mesh (border kill)", 4), C(0.0)),
        ]),
    },
];

/// A row's outcome.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Status {
    Reproduced,
    Direction,
    Not,
    Tested,
}

impl Status {
    fn symbol(self) -> &'static str {
        match self {
            Status::Reproduced => "✅",
            Status::Direction => "◐",
            Status::Not => "❌",
            Status::Tested => "test",
        }
    }
}

/// The [`Rule::Factor`] status of `measured` against `paper` (> 0).
fn factor(paper: f64, measured: f64) -> Status {
    let side = |v: f64| (v - 1.0).signum() * f64::from(v != 1.0);
    if side(measured) == 0.0 || side(measured) != side(paper) {
        Status::Not
    } else if measured <= 2.0 * paper && paper <= 2.0 * measured {
        Status::Reproduced
    } else {
        Status::Direction
    }
}

/// The text of a number token: the token without the brackets and
/// units [`Loc::nth`] names.
fn bare(token: &str) -> &str {
    token
        .trim_start_matches(['(', '[', '>', '~', '='])
        .trim_end_matches([')', ']', ',', ';', ':', 'x', '%', 's'])
}

/// The number tokens of `text`.
fn numbers(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| c.is_whitespace() || c == '/')
        .filter(|tok| tok.bytes().any(|b| b.is_ascii_digit()))
}

/// Parses a number token, naming `what` when it is not one.
fn parse(token: &str, what: &dyn std::fmt::Display) -> Result<(f64, String), String> {
    let text = bare(token);
    match text.parse::<f64>() {
        Ok(v) if v.is_finite() => Ok((v, text.to_string())),
        _ => Err(format!("{what}: `{token}` is not a number")),
    }
}

impl std::fmt::Display for Loc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "results/{}: ", self.file)?;
        if !self.within.is_empty() {
            write!(f, "under `{}`, ", self.within)?;
        }
        write!(f, "`{}` number {}", self.label, self.nth + 1)
    }
}

/// The lines of `text` under the `within` heading (all of them for an
/// empty heading), or `None` when no line starts with it.
fn section<'a>(text: &'a str, within: &str) -> Option<Vec<&'a str>> {
    if within.is_empty() {
        return Some(text.lines().collect());
    }
    let mut lines = text.lines().skip_while(|l| !l.starts_with(within));
    lines.next()?;
    Some(lines.take_while(|l| !l.starts_with("## ")).collect())
}

impl Loc {
    /// The number this locator names in `text`, the artefact's contents,
    /// with its text as the artefact prints it.
    fn find(&self, text: &str) -> Result<(f64, String), String> {
        let lines = section(text, self.within)
            .ok_or_else(|| format!("{self}: no line starts with `{}`", self.within))?;
        let rest = lines
            .iter()
            .map(|l| l.trim_start())
            .find_map(|l| {
                let rest = l.strip_prefix(self.label)?;
                let whole = rest.chars().next().is_none_or(|c| !c.is_alphanumeric());
                whole.then_some(rest)
            })
            .ok_or_else(|| format!("{self}: no line starts with the label"))?;
        let token = numbers(rest)
            .nth(self.nth)
            .ok_or_else(|| format!("{self}: the line has no such number"))?;
        parse(token, self)
    }

    /// [`Loc::find`] in the artefact itself.
    fn read(&self, results: &Path) -> Result<(f64, String), String> {
        let text = std::fs::read_to_string(results.join(self.file))
            .map_err(|e| format!("{self}: cannot read the artefact: {e}"))?;
        self.find(&text)
    }
}

impl Q {
    /// The quantity's values with their texts: one, or one per table row
    /// for a [`Q::Col`].
    fn eval(&self, results: &Path) -> Result<Vec<(f64, String)>, String> {
        Ok(vec![match self {
            Q::At(loc) => loc.read(results)?,
            Q::Ratio(a, b) => {
                let v = a.read(results)?.0 / b.read(results)?.0;
                (v, format!("{v:.3}"))
            }
            Q::Pct(loc) => {
                let (v, text) = loc.read(results)?;
                (v / 100.0, format!("{text}%"))
            }
            Q::C(v) => (*v, v.to_string()),
            Q::Col(file, prefix, nth) => return column(file, prefix, *nth, results),
        }])
    }

    /// The artefacts the quantity reads.
    fn files(&self) -> Vec<&'static str> {
        match self {
            Q::At(loc) | Q::Pct(loc) => vec![loc.file],
            Q::Ratio(a, b) => vec![a.file, b.file],
            Q::C(_) => vec![],
            Q::Col(file, ..) => vec![file],
        }
    }
}

/// The [`Q::Col`] values of `file`.
fn column(
    file: &str,
    prefix: &str,
    nth: usize,
    results: &Path,
) -> Result<Vec<(f64, String)>, String> {
    let text = std::fs::read_to_string(results.join(file))
        .map_err(|e| format!("results/{file}: cannot read the artefact: {e}"))?;
    let mut out = Vec::new();
    for line in text
        .lines()
        .filter_map(|l| l.trim_start().strip_prefix(prefix))
    {
        let Some(key) = line.split_whitespace().next() else {
            continue;
        };
        if key.parse::<f64>().is_err() {
            continue;
        }
        let what = format!("results/{file}: row `{prefix}{key}` number {}", nth + 1);
        let token = numbers(&line[key.len()..])
            .nth(nth)
            .ok_or_else(|| format!("{what}: the row has no such number"))?;
        out.push(parse(token, &what)?);
    }
    if out.is_empty() {
        return Err(format!("results/{file}: no table rows"));
    }
    Ok(out)
}

impl Op {
    fn holds(self, a: f64, b: f64) -> bool {
        match self {
            Op::Eq => a == b,
            Op::Lt => a < b,
            Op::Le => a <= b,
            Op::Gt => a > b,
        }
    }

    /// The operator as written between two values, negated when the
    /// comparison fails.
    fn symbol(self, holds: bool) -> &'static str {
        match (self, holds) {
            (Op::Eq, true) => "=",
            (Op::Eq, false) => "≠",
            (Op::Lt, true) => "<",
            (Op::Lt, false) => "≮",
            (Op::Le, true) => "≤",
            (Op::Le, false) => "≰",
            (Op::Gt, true) => ">",
            (Op::Gt, false) => "≯",
        }
    }
}

/// Each comparison `a op b` makes (one per row for a column) and how it
/// reads.
fn compare(a: &Q, op: Op, b: &Q, results: &Path) -> Result<Vec<(bool, String)>, String> {
    let (lhs, rhs) = (a.eval(results)?, b.eval(results)?);
    let n = lhs.len().max(rhs.len());
    if lhs.len() != rhs.len() && lhs.len().min(rhs.len()) != 1 {
        return Err(format!(
            "columns of {} and {} rows compared",
            lhs.len(),
            rhs.len()
        ));
    }
    Ok((0..n)
        .map(|i| {
            let ((av, at), (bv, bt)) = (&lhs[i % lhs.len()], &rhs[i % rhs.len()]);
            let holds = op.holds(*av, *bv);
            (holds, format!("{at} {} {bt}", op.symbol(holds)))
        })
        .collect())
}

/// The outcome of a list of comparisons: ✅ or ❌, and up to two of
/// them (the failing ones first) beside the count.
fn all_of(outcomes: &[(bool, String)]) -> (Status, String) {
    let failed: Vec<&String> = outcomes.iter().filter(|o| !o.0).map(|o| &o.1).collect();
    let status = if failed.is_empty() {
        Status::Reproduced
    } else {
        Status::Not
    };
    let text = if outcomes.len() <= 2 {
        outcomes
            .iter()
            .map(|o| o.1.as_str())
            .collect::<Vec<_>>()
            .join("; ")
    } else {
        let shown: Vec<&str> = failed.iter().take(2).map(|s| s.as_str()).collect();
        let held = outcomes.len() - failed.len();
        let mut text = format!("{held}/{} hold", outcomes.len());
        if !shown.is_empty() {
            text += &format!(": {}", shown.join("; "));
        }
        text
    };
    (status, text)
}

impl Rule {
    /// The row's status and measured text, from the artefacts in
    /// `results`.
    fn eval(&self, results: &Path) -> Result<(Status, String), String> {
        match self {
            Rule::Exact(pairs) => {
                let mut outcomes = Vec::new();
                for (m, theory) in *pairs {
                    outcomes.extend(compare(m, Op::Eq, theory, results)?);
                }
                Ok(all_of(&outcomes))
            }
            Rule::Factor { paper, measured } => {
                let (v, text) = measured.eval(results)?.swap_remove(0);
                Ok((
                    factor(*paper, v),
                    format!("{text} vs paper {paper} ({:.2}×)", v / paper),
                ))
            }
            Rule::Holds(checks) => {
                let mut outcomes = Vec::new();
                for (a, op, b) in *checks {
                    outcomes.extend(compare(a, *op, b, results)?);
                }
                Ok(all_of(&outcomes))
            }
            Rule::Test(path) => Ok((Status::Tested, format!("gated by {path}"))),
        }
    }

    /// The artefacts the row reads, each once, in order.
    fn files(&self) -> Vec<&'static str> {
        let all: Vec<&'static str> = match self {
            Rule::Exact(pairs) => pairs
                .iter()
                .flat_map(|(a, b)| [a.files(), b.files()].concat())
                .collect(),
            Rule::Factor { measured, .. } => measured.files(),
            Rule::Holds(checks) => checks
                .iter()
                .flat_map(|(a, _, b)| [a.files(), b.files()].concat())
                .collect(),
            Rule::Test(_) => vec![],
        };
        let mut files = Vec::new();
        for f in all {
            if !files.contains(&f) {
                files.push(f);
            }
        }
        files
    }
}

fn run(exp: &Experiment) {
    let results = Path::new("results");
    let mut lines = Vec::new();
    let mut errors: Vec<String> = Vec::new();
    for row in ROWS {
        match row.rule.eval(results) {
            Ok((status, measured)) => lines.push((row, status, measured)),
            Err(e) if !errors.contains(&e) => errors.push(e),
            Err(_) => {}
        }
    }
    if !errors.is_empty() {
        for e in &errors {
            eprintln!("scorecard: {e}");
        }
        std::process::exit(1);
    }
    exp.header("read from results/; no simulation runs");
    println!("# ✅ reproduced, ◐ right direction only, ❌ not reproduced, test: no artefact, a test gates it");
    println!(
        "# a ratio is ✅ on the paper's side of 1 and within 2x of its value, ◐ on its side only"
    );
    let table = Table::new(vec![
        lcol("status", 6),
        lcol("section", 7),
        lcol("claim", 64),
        lcol("measured", 36),
        lcol("artefacts", 0),
    ]);
    table.header();
    for (row, status, measured) in lines {
        table.row(&[
            t(status.symbol()),
            t(row.section),
            t(row.claim),
            t(measured),
            t(row.rule.files().join(", ")),
        ]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_reproduced_up_to_exactly_twice_the_paper_either_way() {
        assert_eq!(factor(2.5, 5.0), Status::Reproduced);
        assert_eq!(factor(2.5, 1.25), Status::Reproduced);
        assert_eq!(factor(2.5, 5.000_001), Status::Direction);
        assert_eq!(factor(2.5, 1.249_999), Status::Direction);
        assert_eq!(factor(4.0, 6.84), Status::Reproduced);
        assert_eq!(factor(2.5, 1.23), Status::Direction);
    }

    #[test]
    fn factor_at_exactly_one_is_on_neither_side() {
        assert_eq!(factor(2.5, 1.0), Status::Not);
        assert_eq!(factor(0.7, 1.0), Status::Not);
        assert_eq!(factor(1.5, 0.9), Status::Not);
    }

    #[test]
    fn factor_below_one_needs_the_measurement_below_one() {
        // §4.2: ABRR clients receive ~70 % of TBRR's updates.
        assert_eq!(factor(0.7, 1.142), Status::Not, "within 2x, wrong side");
        assert_eq!(factor(0.7, 0.35), Status::Reproduced);
        assert_eq!(factor(0.7, 1.4 / 17.68), Status::Direction);
        assert_eq!(factor(0.651, 13040.0 / 16188.0), Status::Reproduced);
    }

    #[test]
    fn locators_match_whole_labels_within_their_section() {
        let text = "# t\nABRR #APs=16   5 (6) 7x\nABRR #APs=1   1 | 2%\n## a\nx 1\n## b\nx 2\n";
        let at = |within, label, nth| n_in("f", within, label, nth).find(text);
        assert_eq!(at("", "ABRR #APs=1", 1).unwrap().0, 2.0);
        assert_eq!(at("", "ABRR #APs=16", 1).unwrap(), (6.0, "6".into()));
        assert_eq!(at("", "ABRR #APs=16", 2).unwrap().1, "7");
        assert_eq!(at("## b", "x", 0).unwrap().0, 2.0);
        assert!(at("## a", "x", 1).unwrap_err().contains("no such number"));
        assert!(at("## c", "x", 0).unwrap_err().contains("`## c`"));
        assert!(at("", "ABRR #APs=3", 0)
            .unwrap_err()
            .contains("`ABRR #APs=3`"));
    }

    #[test]
    fn a_garbled_number_is_an_error_naming_its_locator() {
        let err = n("t.txt", "ratio :", 0)
            .find("ratio : 1.2z3x\n")
            .unwrap_err();
        assert!(
            err.contains("results/t.txt") && err.contains("`ratio :` number 1"),
            "{err}"
        );
        assert!(err.contains("`1.2z3x` is not a number"), "{err}");
    }

    #[test]
    fn every_gating_test_exists() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for row in ROWS {
            if let Rule::Test(path) = row.rule {
                assert!(root.join(path).is_file(), "{}: no {path}", row.claim);
            }
        }
    }

    #[test]
    fn comparisons_read_as_their_outcome() {
        let outcomes = vec![(true, "1 < 2".to_string()), (false, "3 ≮ 2".to_string())];
        assert_eq!(all_of(&outcomes), (Status::Not, "1 < 2; 3 ≮ 2".into()));
        let three = vec![(true, "a".to_string()); 3];
        assert_eq!(all_of(&three), (Status::Reproduced, "3/3 hold".into()));
    }
}
