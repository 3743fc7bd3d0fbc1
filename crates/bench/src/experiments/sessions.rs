//! §3.3 — iBGP peering-session accounting: the resource ABRR spends to
//! buy its correctness (and why the paper argues that's fine on modern
//! hardware: Cisco ASR1000s tested to 8000 sessions; RCP showed
//! commodity boxes scale too).
//!
//! Prints the analytical counts for the paper's Tier-1 shape and
//! cross-checks them against the session sets the simulator actually
//! builds for the synthetic model.

use super::Def;
use crate::cli::PREFIXES;
use crate::pipeline::{col, f, Experiment, Table};
use bgp_types::RouterId;
use std::sync::Arc;
use workload::specs::{self, SpecOptions};
use workload::{Tier1Config, Tier1Model};

pub const DEF: Def = Def {
    name: "sessions",
    about: "§3.3 — iBGP sessions per role",
    flags: &[PREFIXES],
    base: || Tier1Config {
        n_prefixes: 50,
        ..Tier1Config::default()
    },
    artefacts: &[("sessions.txt", "")],
    run,
};

/// Sessions a node actually has in the built sim.
fn sessions_of(
    sim: &netsim::Sim<abrr::BgpNode>,
    spec: &abrr::NetworkSpec,
    node: RouterId,
) -> usize {
    spec.all_nodes()
        .iter()
        .filter(|n| **n != node && sim.has_session(node, **n))
        .count()
}

fn run(exp: &Experiment) {
    let cfg = exp.args.tier1();
    exp.header("analytical counts for the paper's Tier-1 shape, plus simulator cross-check");

    println!("\n## analytical (paper's AS: 1000 routers, 27 clusters, 2 RRs each)");
    let table = Table::new(vec![
        col("#APs", 8),
        col("per ARR", 10),
        col("per TRR", 10),
        col("per ABRR client", 14),
        col("per TBRR client", 14),
    ]);
    table.header_row();
    for aps in [5.0, 10.0, 13.0, 15.0, 27.0] {
        let s = analysis::sessions(1000.0, aps, 27.0, 2.0);
        table.row(&[
            f(aps, 0),
            f(s.per_arr, 0),
            f(s.per_trr, 0),
            f(s.per_abrr_client, 0),
            f(s.per_tbrr_client, 0),
        ]);
    }
    println!("\n# paper: TRR max ~200 / avg ~100 sessions; \"Each ARR in this network");
    println!("# would require over 1000 sessions\"; clients 20-30 (ABRR) vs 2 (TBRR).");

    // Simulator cross-check at model scale.
    let model = Tier1Model::generate(cfg);
    let n_routers = model.routers.len();
    let opts = SpecOptions::default();
    println!(
        "\n## simulator cross-check ({} routers, 13 PoPs)",
        n_routers
    );
    {
        let n_aps = 13usize;
        let spec = Arc::new(specs::abrr_spec(&model, n_aps, 2, &opts));
        let sim = abrr::build_sim(spec.clone());
        let arr_sessions = sessions_of(&sim, &spec, spec.all_arrs()[0]);
        let client_sessions = sessions_of(&sim, &spec, model.routers[0]);
        println!(
            "ABRR #APs={n_aps}: sessions per ARR = {arr_sessions} (every other node), per client = {client_sessions}"
        );
    }
    {
        let spec = Arc::new(specs::tbrr_spec(&model, 2, false, &opts));
        let sim = abrr::build_sim(spec.clone());
        let trr_sessions = sessions_of(&sim, &spec, spec.all_trrs()[0]);
        let client_sessions = sessions_of(&sim, &spec, model.routers[0]);
        println!(
            "TBRR 13 clusters: sessions per TRR = {trr_sessions} (cluster + mesh), per client = {client_sessions}"
        );
    }
}
