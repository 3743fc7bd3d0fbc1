//! The experiment registry: every figure, table and tool `repro` runs,
//! each declared once as a [`Def`] value.

mod convergence;
mod correctness;
mod event_trace;
mod fig3;
mod fig6;
mod fig7;
mod mrt_replay;
mod panels;
mod resilience;
mod scale;
mod scenario;
mod scorecard;
mod sessions;
mod show_rib;
mod table_updates;

use crate::cli::FlagSpec;
use crate::pipeline::Experiment;
use workload::Tier1Config;

/// One experiment: what `repro <name>` runs.
pub struct Def {
    /// Subcommand name.
    pub name: &'static str,
    /// One-line description; also the title of the experiment's header.
    pub about: &'static str,
    /// Declared flags, with their defaults.
    pub flags: &'static [FlagSpec],
    /// The Tier-1 model the `--seed`, `--prefixes`, `--pops` and `--rpp`
    /// flags start from (and whose values `--help` shows).
    pub base: fn() -> Tier1Config,
    /// Published artefacts: a `results/` file name and the flags whose
    /// stdout it is. `@OUT@` in the flags stands for the artefact's
    /// path: that run writes the file itself.
    pub artefacts: &'static [(&'static str, &'static str)],
    /// Runs the experiment.
    pub run: fn(&Experiment),
}

/// Every experiment, in `repro list` order.
pub const ALL: &[Def] = &[
    fig3::DEF,
    panels::FIG4,
    panels::FIG5,
    fig6::DEF,
    fig7::DEF,
    table_updates::DEF,
    correctness::DEF,
    convergence::DEF,
    event_trace::DEF,
    sessions::DEF,
    show_rib::DEF,
    resilience::DEF,
    scale::DEF,
    scenario::DEF,
    mrt_replay::DEF,
    // Last: it reads the artefacts every row above writes.
    scorecard::DEF,
];
