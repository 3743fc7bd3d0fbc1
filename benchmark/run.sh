#!/usr/bin/env bash
# Builds the benchmark package from source (a no-op when it is up to
# date) and runs the binary that matches --trace: `bench` measures the
# end-to-end metrics on the system allocator with obs off, and
# `bench_traced` the per-layer metrics under the counting allocator.
# Run from the repository root: bash benchmark/run.sh --workload NAME
# --seed N --seconds S --trace 0|1
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# The repository's own target directory by default, so the layers'
# release artefacts are shared with the workspace build.
target="${CARGO_TARGET_DIR:-$here/../target}"
cargo build --release --offline --quiet --bins \
    --manifest-path "$here/Cargo.toml" --target-dir "$target"
bin=bench
prev=""
for arg in "$@"; do
    if [ "$prev" = "--trace" ] && [ "$arg" = "1" ]; then
        bin=bench_traced
    fi
    prev="$arg"
done
exec "$target/release/$bin" "$@"
