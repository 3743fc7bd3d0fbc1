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
//!
//! Run: `cargo run --release -p abrr-bench --bin mrt_replay -- \
//!       [--file DUMP.mrt] [--export OUT.mrt] [--minutes M] [--speedup X]`

use abrr_bench::pipeline::{col, f, lcol, t, u, JsonRow, Table};
use abrr_bench::{flag, tier1_config, Args, Experiment, FlagSpec, AP_COUNTS};
use std::sync::Arc;
use workload::churn::{self, ChurnConfig, TraceRecord};
use workload::mrt::{self, MrtImportConfig};
use workload::specs::{self, SpecOptions};
use workload::{Tier1Config, Tier1Model};

const FLAGS: &[FlagSpec] = &[
    flag(
        "file",
        "PATH",
        "MRT dump to replay (BGP4MP/BGP4MP_ET updates and/or TABLE_DUMP_V2 \
         RIB snapshot); default: generate a seeded churn trace instead",
    ),
    flag(
        "export",
        "PATH",
        "write the replayed trace as an MRT BGP4MP_ET MESSAGE_AS4 file",
    ),
    flag("seed", "S", "workload RNG seed"),
    flag(
        "prefixes",
        "N",
        "routed prefixes in the model (default 300)",
    ),
    flag("pops", "P", "PoPs in the topology (default 5)"),
    flag("rpp", "R", "routers per PoP (default 8)"),
    flag("aps", "K", "address partitions (default 4)"),
    flag(
        "minutes",
        "M",
        "generated churn duration in simulated minutes (default 2; \
         ignored with --file)",
    ),
    flag(
        "speedup",
        "X",
        "trace time acceleration (default 20, the paper's §4 fast replay)",
    ),
];

fn main() {
    let args = Args::parse("mrt_replay", FLAGS);
    let cfg = tier1_config(
        &args,
        Tier1Config {
            n_prefixes: 300,
            n_pops: 5,
            routers_per_pop: 8,
            ..Tier1Config::default()
        },
    );
    let n_aps = args.get_in("aps", 4, AP_COUNTS);
    let minutes: u64 = args.get("minutes", 2);
    let speedup: u64 = args.get("speedup", 20);
    let file = args.map_get("file").map(str::to_string);
    let export = args.map_get("export").map(str::to_string);

    let exp = Experiment::start(
        &args,
        "MRT replay — RFC 6396 trace through the Tier-1 pipeline",
        &format!(
            "seed={} prefixes={} pops={} routers/pop={} aps={n_aps} speedup={speedup} source={}",
            cfg.seed,
            cfg.n_prefixes,
            cfg.n_pops,
            cfg.routers_per_pop,
            file.as_deref().unwrap_or("generated churn"),
        ),
    );
    let seed = cfg.seed;
    let model = Tier1Model::generate(cfg);

    // Trace source: an external dump, or self-generated churn.
    let (records, source): (Vec<TraceRecord>, &str) = match &file {
        Some(path) => {
            let mut input =
                std::io::BufReader::new(std::fs::File::open(path).unwrap_or_else(|e| {
                    eprintln!("mrt_replay: cannot open {path}: {e}");
                    std::process::exit(2);
                }));
            let import = mrt::read_mrt(
                &mut input,
                &MrtImportConfig {
                    routers: model.routers.clone(),
                },
            )
            .unwrap_or_else(|e| {
                eprintln!("mrt_replay: {path}: {e}");
                std::process::exit(2);
            });
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
        let mut out = std::io::BufWriter::new(std::fs::File::create(path).unwrap_or_else(|e| {
            eprintln!("mrt_replay: cannot create {path}: {e}");
            std::process::exit(2);
        }));
        mrt::write_mrt(&mut out, &records).unwrap_or_else(|e| {
            eprintln!("mrt_replay: export to {path} failed: {e}");
            std::process::exit(2);
        });
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
        lcol("source", 7),
        col("records", 10),
        col("RR generated", 13),
        col("RR transmitted", 15),
        col("client received", 16),
        col("wall ms", 10),
    ]);
    table.header();
    table.row(&[
        t(source),
        u(records.len() as u64),
        u(rr_d.generated),
        u(rr_d.transmitted),
        u(cl_d.received),
        f(wall_ms, 1),
    ]);
    assert!(
        run.outcome.quiesced,
        "mrt_replay did not settle after the trace"
    );
    JsonRow::new()
        .str("bin", "mrt_replay")
        .str("source", source)
        .usize("records", records.len())
        .u64("rr_generated", rr_d.generated)
        .u64("rr_transmitted", rr_d.transmitted)
        .u64("client_received", cl_d.received)
        .f64("wall_ms", wall_ms, 1)
        .bool("quiesced", run.outcome.quiesced)
        .emit(None);
}
