//! Cross-refactor golden fingerprints.
//!
//! A fingerprint is a deterministic, human-diffable text rendering of a
//! converged simulation: per-node Adj-RIB-In/Out sizes, a stable hash
//! of the Loc-RIB contents, and the full update counters. The golden
//! files under `tests/golden/` were recorded from the pre-role-split
//! engine; `crates/bench/tests/golden_regression.rs` replays the same
//! scenarios and requires byte-identical output, so any refactor that
//! perturbs protocol behavior — one message more, one tie broken
//! differently — fails loudly.
//!
//! To re-bless after an *intentional* behavior change:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test -p abrr-bench --test golden_regression
//! ```

use crate::SETTLE_BUDGET_US;
use abrr::{BgpNode, NetworkSpec};
use bgp_types::RouterId;
use faults::{compile, FaultKind, FaultSchedule};
use netsim::{RunConfig, RunLimits, Sim, Time, WireMode};
use std::fmt::Write as _;
use std::sync::Arc;
use workload::specs::{self, SpecOptions};
use workload::{churn, regen, ChurnConfig, Tier1Config, Tier1Model};

/// FNV-1a 64-bit: stable across platforms, builds, and refactors
/// (unlike `DefaultHasher`, whose keys are unspecified).
fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h ^= *b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Stable hash of a node's Loc-RIB: every selection's prefix,
/// attributes, source, and advertising neighbor, in prefix order.
pub fn loc_rib_hash(node: &BgpNode) -> u64 {
    let mut sels: Vec<_> = node.selections().collect();
    sels.sort_by_key(|(p, _)| **p);
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for (prefix, sel) in sels {
        fnv1a(
            &mut h,
            format!(
                "{prefix}|{:?}|{:?}|{}\n",
                sel.attrs, sel.source, sel.neighbor_id
            )
            .as_bytes(),
        );
    }
    h
}

/// One line per node: RIB sizes, Loc-RIB hash, counters.
pub fn node_line(id: RouterId, node: &BgpNode) -> String {
    let c = node.counters();
    format!(
        "node {} rib_in={} rib_out={} loc_n={} loc_hash={:016x} rx={} gen={} tx={} bytes={} loop={} ebgp_ev={} ebgp_exp={}",
        id.0,
        node.rib_in_size(),
        node.rib_out_size(),
        node.loc_rib_len(),
        loc_rib_hash(node),
        c.received,
        c.generated,
        c.transmitted,
        c.bytes_transmitted,
        c.loop_prevented,
        c.ebgp_events,
        c.ebgp_exported,
    )
}

/// Full-fleet fingerprint: a header plus one [`node_line`] per node of
/// the spec, in id order.
pub fn fingerprint(name: &str, sim: &Sim<BgpNode>, spec: &NetworkSpec) -> String {
    let mut out = String::new();
    writeln!(out, "# golden fingerprint v1").unwrap();
    writeln!(out, "config {name}").unwrap();
    for id in spec.all_nodes() {
        writeln!(out, "{}", node_line(id, sim.node(id))).unwrap();
    }
    out
}

/// The shared small-scale Tier-1 model every golden scenario runs on
/// (kept tiny so the regression suite stays in test-time budget).
fn golden_model() -> Tier1Model {
    Tier1Model::generate(Tier1Config {
        n_prefixes: 120,
        n_pops: 3,
        routers_per_pop: 3,
        ..Tier1Config::default()
    })
}

/// A named golden scenario: builds, runs, and fingerprints one
/// configuration.
pub struct GoldenScenario {
    /// Scenario (and golden file) name.
    pub name: &'static str,
    run: fn(RunConfig) -> String,
}

impl GoldenScenario {
    /// Runs the scenario on [`Sim::run`] in `cfg.wire` mode and returns
    /// its fingerprint text. The result must be byte-identical for
    /// every wire mode (`tests/wire_mode.rs`): wire transport is
    /// behaviorally invisible. `cfg.limits` caps each scripted segment.
    pub fn run(&self, cfg: RunConfig) -> String {
        (self.run)(cfg)
    }
}

/// Runs `sim` to `deadline` (or `cfg.limits`, whichever is tighter).
fn run_until(sim: &mut Sim<BgpNode>, cfg: RunConfig, deadline: Time) {
    sim.run(RunLimits {
        max_events: cfg.limits.max_events,
        max_time: deadline.min(cfg.limits.max_time),
    });
}

fn converge(spec: &Arc<NetworkSpec>, model: &Tier1Model, cfg: RunConfig) -> Sim<BgpNode> {
    let mut sim = abrr::build_sim(spec.clone());
    regen::replay(&mut sim, &churn::initial_snapshot(model), 1_000);
    run_until(&mut sim, cfg, SETTLE_BUDGET_US);
    sim
}

fn wired(mut spec: NetworkSpec, wire: WireMode) -> Arc<NetworkSpec> {
    spec.wire_mode = wire;
    Arc::new(spec)
}

fn fig6_abrr(cfg: RunConfig) -> String {
    let model = golden_model();
    let opts = SpecOptions {
        mrai_us: 1_000_000,
        ..Default::default()
    };
    let spec = wired(specs::abrr_spec(&model, 4, 2, &opts), cfg.wire);
    let sim = converge(&spec, &model, cfg);
    fingerprint("fig6_abrr_4aps", &sim, &spec)
}

fn fig6_tbrr(cfg: RunConfig) -> String {
    let model = golden_model();
    let opts = SpecOptions {
        mrai_us: 1_000_000,
        ..Default::default()
    };
    let spec = wired(specs::tbrr_spec(&model, 2, false, &opts), cfg.wire);
    let sim = converge(&spec, &model, cfg);
    fingerprint("fig6_tbrr", &sim, &spec)
}

fn fig7_churn(cfg: RunConfig) -> String {
    let model = golden_model();
    let opts = SpecOptions {
        mrai_us: 1_000_000,
        ..Default::default()
    };
    let spec = wired(specs::abrr_spec(&model, 4, 2, &opts), cfg.wire);
    let mut sim = converge(&spec, &model, cfg);
    let churn_cfg = ChurnConfig {
        duration_us: 60_000_000,
        events_per_sec: 2.0,
        ..ChurnConfig::default()
    };
    let deadline = sim.now() + churn_cfg.duration_us + SETTLE_BUDGET_US;
    regen::replay(&mut sim, &churn::generate(&model, &churn_cfg), 1);
    run_until(&mut sim, cfg, deadline);
    fingerprint("fig7_churn_abrr", &sim, &spec)
}

fn resilience_arr_kill(cfg: RunConfig) -> String {
    let model = golden_model();
    let opts = SpecOptions::default();
    let spec = wired(specs::abrr_spec(&model, 4, 2, &opts), cfg.wire);
    let mut sim = converge(&spec, &model, cfg);
    let mut sched = FaultSchedule::new(11);
    sched.push(
        sim.now() + 1_000_000,
        FaultKind::ArrFailure {
            arr: spec.all_arrs()[0],
        },
    );
    compile(&sched, &spec, &mut sim).expect("schedule compiles");
    let deadline = sim.now() + SETTLE_BUDGET_US;
    run_until(&mut sim, cfg, deadline);
    fingerprint("resilience_arr_kill", &sim, &spec)
}

/// All golden scenarios, in file order.
pub fn scenarios() -> Vec<GoldenScenario> {
    vec![
        GoldenScenario {
            name: "fig6_abrr_4aps",
            run: fig6_abrr,
        },
        GoldenScenario {
            name: "fig6_tbrr",
            run: fig6_tbrr,
        },
        GoldenScenario {
            name: "fig7_churn_abrr",
            run: fig7_churn,
        },
        GoldenScenario {
            name: "resilience_arr_kill",
            run: resilience_arr_kill,
        },
    ]
}

/// Directory holding the golden files (workspace `tests/golden/`).
pub fn golden_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .canonicalize()
        .unwrap_or_else(|_| {
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
        })
}
