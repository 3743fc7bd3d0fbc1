//! The end-to-end binary (`--trace 0`): system allocator, `obs` off,
//! no spans.

fn main() -> std::process::ExitCode {
    abrr_benchmark::run::main_with(false)
}
