//! The per-layer binary (`--trace 1`): counting allocator, `obs`
//! metrics and profiling on, spans recorded and written to
//! `benchmark/out/<workload>.trace.json`.

#[global_allocator]
static ALLOC: abrr_benchmark::alloc::CountingAlloc = abrr_benchmark::alloc::CountingAlloc;

fn main() -> std::process::ExitCode {
    abrr_benchmark::run::main_with(true)
}
