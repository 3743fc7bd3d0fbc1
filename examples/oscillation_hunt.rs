//! Oscillation hunting at workload scale: load the synthetic Tier-1
//! snapshot under single-path TBRR and under ABRR; if TBRR fails to
//! quiesce (it genuinely can — §2.3's pathologies are real in this
//! workload), rank the prefixes it is fighting over, then show that the
//! very same prefixes are quiet under ABRR.
//!
//! The network comes from `examples/scenarios/oscillation_hunt.json` —
//! the corpus file whose CI verdict pins "TBRR still churning at budget
//! exhaustion". This example is the long-form investigation of the same
//! scenario: a 5-simulated-minute hunt plus the per-prefix suspect
//! ranking, instead of the corpus stage's quick 30-second verdict.
//!
//! Run with: `cargo run --release --example oscillation_hunt`

use abrr::audit;
use abrr::Mode;
use scenario::Loaded;
use std::sync::Arc;
use workload::{churn, regen};

fn main() {
    let loaded = scenario::load_corpus("oscillation_hunt")
        .unwrap_or_else(|e| panic!("oscillation_hunt.json failed to load: {e:?}"));
    let Loaded::Tier1(t1) = &loaded else {
        panic!("oscillation_hunt.json must be a tier1 scenario");
    };
    let model = t1.model.clone();
    println!(
        "model: {} routers / {} PoPs, {} prefixes (seed {})",
        model.routers.len(),
        model.view.pops.len(),
        model.prefixes.len(),
        t1.params.seed
    );

    let run = |name: &str, spec: Arc<abrr::NetworkSpec>| -> netsim::Sim<abrr::BgpNode> {
        let mut sim = abrr::build_sim(spec);
        regen::replay(&mut sim, &churn::initial_snapshot(&model), 1_000);
        let out = sim.run(netsim::RunLimits {
            max_events: u64::MAX,
            max_time: 300_000_000, // 5 simulated minutes
        });
        println!(
            "\n{name}: {} after {} events (t={}s)",
            if out.quiesced {
                "CONVERGED"
            } else {
                "STILL OSCILLATING"
            },
            out.events,
            out.end_time / 1_000_000
        );
        sim
    };

    let tbrr = run(
        &format!("TBRR ({} clusters, single-path)", model.view.pops.len()),
        Arc::new(loaded.spec(Mode::Tbrr { multipath: false })),
    );
    println!("top oscillation suspects under TBRR:");
    let suspects = audit::oscillation_suspects(&tbrr, 5);
    for s in &suspects {
        println!(
            "  {:<20} {:>8} selection changes (hottest at {:?})",
            s.prefix.to_string(),
            s.total_changes,
            s.hottest_node
        );
    }

    let ab = run(
        &format!(
            "ABRR ({} APs, {} ARRs each)",
            t1.params.aps, t1.params.arrs_per_ap
        ),
        Arc::new(loaded.spec(Mode::Abrr)),
    );
    println!("the same prefixes under ABRR:");
    for s in &suspects {
        let total: u64 = ab
            .nodes()
            .map(|(_, n)| n.selection_changes(&s.prefix))
            .sum();
        println!(
            "  {:<20} {:>8} selection changes",
            s.prefix.to_string(),
            total
        );
    }
    println!("\nABRR's counts are the one-shot convergence transient; TBRR's grow");
    println!("with every simulated second — the §2.3 oscillations, caught in the act.");
}
