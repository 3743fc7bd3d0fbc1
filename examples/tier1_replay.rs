//! The paper's §4 pipeline, end to end: generate a synthetic Tier-1
//! model, write its churn trace to an RFC 6396 MRT file on disk (the
//! paper's own trace format), read it back for the route regenerator,
//! replay it into ABRR and TBRR simulations, and print the comparative
//! update/RIB statistics.
//!
//! Run with: `cargo run --release --example tier1_replay`

use std::sync::Arc;
use workload::mrt::{self, MrtImportConfig};
use workload::specs::{self, SpecOptions};
use workload::{churn, regen, ChurnConfig, Tier1Config, Tier1Model};

fn main() {
    // 1. The model (a scaled-down Tier-1: see DESIGN.md for the
    //    calibration targets).
    let cfg = Tier1Config {
        n_prefixes: 800,
        n_pops: 6,
        routers_per_pop: 4,
        ..Tier1Config::default()
    };
    let model = Tier1Model::generate(cfg.clone());
    println!(
        "model: {} routers / {} PoPs, {} prefixes, {} peer ASes, avg #BAL {:.1}",
        model.routers.len(),
        model.view.pops.len(),
        model.prefixes.len(),
        model.peer_ases.len(),
        model.avg_bal_all_peers()
    );

    // 2. Generate a churn trace and round-trip it through the on-disk
    //    trace format — exactly what the paper's route regenerator
    //    consumes.
    let trace = churn::generate(
        &model,
        &ChurnConfig {
            duration_us: 120_000_000, // 2 simulated minutes
            events_per_sec: 3.0,
            ..ChurnConfig::default()
        },
    );
    let path = std::env::temp_dir().join("abrr_tier1_trace.mrt");
    let mut f = std::fs::File::create(&path).expect("create trace file");
    mrt::write_mrt(&mut f, &trace).expect("write trace");
    let mut f = std::fs::File::open(&path).expect("open trace file");
    // An empty router list trusts each record's local IP as the router
    // id `write_mrt` stored there. Import times are relative to the
    // first update, so the whole trace shifts by that record's offset.
    let import = mrt::read_mrt(&mut f, &MrtImportConfig::default()).expect("read trace");
    let replayed = import.records;
    assert_eq!(import.stats.skipped_malformed, 0);
    assert_eq!(replayed.len(), trace.len());
    let shift = trace.first().map_or(0, |r| r.t_us);
    for (a, b) in trace.iter().zip(&replayed) {
        assert_eq!(
            (a.t_us - shift, a.router, &a.event),
            (b.t_us, b.router, &b.event)
        );
    }
    println!(
        "trace: {} records written to {} as BGP4MP_ET and read back identical",
        trace.len(),
        path.display()
    );

    // 3. Replay snapshot + trace under both schemes.
    let opts = SpecOptions {
        mrai_us: 1_000_000,
        account_bytes: true,
        ..Default::default()
    };
    for (name, spec) in [
        (
            "ABRR (#APs=6, 2 ARRs each)",
            specs::abrr_spec(&model, 6, 2, &opts),
        ),
        (
            "TBRR (6 clusters, 2 TRRs)",
            specs::tbrr_spec(&model, 2, false, &opts),
        ),
    ] {
        let rrs: Vec<_> = if spec.mode.has_abrr() {
            spec.all_arrs()
        } else {
            spec.all_trrs()
        };
        let spec = Arc::new(spec);
        let mut sim = abrr::build_sim(spec.clone());
        regen::replay(&mut sim, &churn::initial_snapshot(&model), 1_000);
        // Sample at a time budget: single-path TBRR may keep oscillating
        // (a real TBRR failure mode this workload can reproduce).
        let out = sim.run(netsim::RunLimits {
            max_events: u64::MAX,
            max_time: 300_000_000,
        });
        if !out.quiesced {
            println!("  (note: {name} did not quiesce on the snapshot — persistent oscillation)");
        }
        let deadline = sim.now() + 150_000_000 + 300_000_000;
        regen::replay(&mut sim, &replayed, 1);
        let out = sim.run(netsim::RunLimits {
            max_events: u64::MAX,
            max_time: deadline,
        });
        if !out.quiesced {
            println!("  (note: {name} still churning at the sampling instant)");
        }

        let mut rx = 0u64;
        let mut gen = 0u64;
        let mut tx = 0u64;
        let mut bytes = 0u64;
        let mut rib_in = 0usize;
        let mut rib_out = 0usize;
        for r in &rrs {
            let n = sim.node(*r);
            rx += n.counters().received;
            gen += n.counters().generated;
            tx += n.counters().transmitted;
            bytes += n.counters().bytes_transmitted;
            rib_in += n.rib_in_size();
            rib_out += n.rib_out_size();
        }
        let k = rrs.len() as u64;
        println!("\n{name}: per-RR averages over {} RRs", k);
        println!("  updates received   : {}", rx / k);
        println!("  updates generated  : {}", gen / k);
        println!("  updates transmitted: {}", tx / k);
        println!("  bytes transmitted  : {}", bytes / k);
        println!("  RIB-In entries     : {}", rib_in / k as usize);
        println!("  RIB-Out entries    : {}", rib_out / k as usize);
    }
    println!("\nExpected shape (paper §4): ARR RIBs and generated updates well below TRR's;");
    println!("ARR transmits fewer updates but more bytes per update (the add-paths sets).");
}
