//! MRT replay: drive the Tier-1 pipeline from an RFC 6396 MRT dump —
//! the paper §4 methodology ("uses the MRT-format routing trace to
//! direct BGP feeds towards our implementation") on real
//! RouteViews/RIPE-RIS-style files.
//!
//! With `--file`, the dump's TABLE_DUMP_V2 RIB entries land at t = 0
//! and its BGP4MP UPDATEs replay in trace time (accelerated by
//! `--speedup`), spread round-robin over the model's border routers.
//! Without `--file`, a seeded churn trace is generated instead, so the
//! binary doubles as an MRT *producer*: `--export` writes whichever
//! trace was replayed back out as a BGP4MP_ET MESSAGE_AS4 file that
//! external MRT tooling (bgpdump, mrtparse) can read.

use super::Def;
use crate::cli::{flag, APS, AP_COUNTS, MINUTES, POPS, PREFIXES, RPP, SEED};
use crate::pipeline::{col, f, key, lcol, t, u, Cell, Experiment, Table};
use std::io::Write as _;
use std::sync::Arc;
use workload::churn::{self, ChurnConfig, TraceRecord};
use workload::mrt::{self, MrtImportConfig};
use workload::specs::{self, SpecOptions};
use workload::{Tier1Config, Tier1Model};

pub const DEF: Def = Def {
    name: "mrt_replay",
    about: "MRT replay — RFC 6396 trace through the Tier-1 pipeline",
    flags: &[
        flag(
            "file",
            "PATH",
            "MRT dump to replay (BGP4MP/BGP4MP_ET updates and/or TABLE_DUMP_V2 \
             RIB snapshot); default: generate a seeded churn trace of --minutes instead",
        ),
        flag(
            "export",
            "PATH",
            "write the replayed trace as an MRT BGP4MP_ET MESSAGE_AS4 file",
        ),
        SEED,
        PREFIXES,
        POPS,
        RPP,
        APS.or("4"),
        MINUTES.or("2"),
        flag(
            "speedup",
            "X",
            "trace time acceleration (the paper's §4 fast replay)",
        )
        .or("20"),
    ],
    base: || Tier1Config {
        n_prefixes: 300,
        n_pops: 5,
        routers_per_pop: 8,
        ..Tier1Config::default()
    },
    artefacts: &[],
    run,
};

fn run(exp: &Experiment) {
    let args = &exp.args;
    let cfg = args.tier1();
    let n_aps = args.get_in("aps", AP_COUNTS);
    let minutes: u64 = args.get("minutes");
    let speedup: u64 = args.get("speedup");
    let file: Option<String> = args.get_opt("file");
    let export: Option<String> = args.get_opt("export");

    exp.header(&format!(
        "seed={} prefixes={} pops={} routers/pop={} aps={n_aps} speedup={speedup} source={}",
        cfg.seed,
        cfg.n_prefixes,
        cfg.n_pops,
        cfg.routers_per_pop,
        file.as_deref().unwrap_or("generated churn"),
    ));
    let seed = cfg.seed;
    let model = Tier1Model::generate(cfg);

    // Trace source: an external dump, or self-generated churn.
    let (records, source): (Vec<TraceRecord>, &str) = match &file {
        Some(path) => {
            let file =
                std::fs::File::open(path).unwrap_or_else(|e| args.reject("file", &e.to_string()));
            let routers = model.routers.clone();
            let import = mrt::read_mrt(
                &mut std::io::BufReader::new(file),
                &MrtImportConfig { routers },
            )
            .unwrap_or_else(|e| args.reject("file", &e.to_string()));
            let s = &import.stats;
            println!(
                "# mrt: {} records read: {} updates, {} rib entries, \
                 {} malformed skipped, {} unsupported skipped",
                s.records_read,
                s.updates,
                s.rib_entries,
                s.skipped_malformed,
                s.skipped_unsupported
            );
            (import.records, "mrt")
        }
        None => {
            let churn_cfg = ChurnConfig {
                seed,
                duration_us: minutes * 60_000_000,
                ..ChurnConfig::default()
            };
            (churn::generate(&model, &churn_cfg), "churn")
        }
    };
    if let Some(path) = &export {
        let file =
            std::fs::File::create(path).unwrap_or_else(|e| args.reject("export", &e.to_string()));
        let mut out = std::io::BufWriter::new(file);
        mrt::write_mrt(&mut out, &records)
            .and_then(|()| Ok(out.flush()?))
            .unwrap_or_else(|e| args.reject("export", &e.to_string()));
        println!("# mrt: exported {} records -> {path}", records.len());
    }

    // Converge the model's own RIB snapshot, then replay the trace.
    let opts = SpecOptions::default();
    let spec = Arc::new(specs::abrr_spec(&model, n_aps, 2, &opts));
    let rrs = spec.all_arrs();
    let mut run = exp
        .converge(spec.clone(), &model)
        .require_quiesced("mrt_replay converge");
    let rr_w = run.window(&rrs);
    let cl_w = run.window(&model.routers);
    let trace_end = records.last().map(|r| r.t_us).unwrap_or(0);
    let wall = std::time::Instant::now();
    workload::regen::replay(&mut run.sim, &records, speedup);
    let t_done = run.now() + trace_end / speedup.max(1) + 1;
    run.advance_to(t_done);
    run.settle();
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;

    let rr_d = rr_w.delta(&run);
    let cl_d = cl_w.delta(&run);
    let table = Table::new(vec![
        key("bin"),
        lcol("source", 7).json("source"),
        col("records", 10).json("records"),
        col("RR generated", 13).json("rr_generated"),
        col("RR transmitted", 15).json("rr_transmitted"),
        col("client received", 16).json("client_received"),
        col("wall ms", 10).json("wall_ms"),
        key("quiesced"),
    ]);
    table.header();
    let cells = [
        t("mrt_replay"),
        t(source),
        u(records.len() as u64),
        u(rr_d.generated),
        u(rr_d.transmitted),
        u(cl_d.received),
        f(wall_ms, 1),
        Cell::B(run.outcome.quiesced),
    ];
    table.row(&cells);
    assert!(
        run.outcome.quiesced,
        "mrt_replay did not settle after the trace"
    );
    table.json(&cells).emit(None);
}
