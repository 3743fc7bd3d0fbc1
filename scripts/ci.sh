#!/usr/bin/env bash
# Repository CI gate. Run from the workspace root:
#
#   scripts/ci.sh
#
# Everything is offline: dependencies are the vendored stubs under
# vendor/, so no network access or registry is needed.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

echo "== benchmark-only names stay out of crates/*/src"
# benchmark/src/kernels.rs still names what no router uses: the
# adapters in bgp-rib/src/compat.rs and bgp-types' PrefixTrie alias of
# PrefixTable. Until the kernels move off them (ROADMAP item 3), only
# their definitions may name them under crates/*/src: compat.rs, its
# re-export, the alias line and its re-export. Tests may use them.
FENCED=$(grep -rnE '\b(PrefixTrie|CandidateBatch|AdjRibIn|LocRib)\b|\bcompat::' crates/*/src |
  grep -vE '^crates/bgp-rib/src/compat\.rs:' |
  grep -vE '^crates/bgp-rib/src/lib\.rs:[0-9]+:pub use compat::' |
  grep -vE '^crates/bgp-types/src/trie\.rs:[0-9]+:pub type PrefixTrie<' |
  grep -vE '^crates/bgp-types/src/lib\.rs:[0-9]+:pub use trie::' || true)
if [ -n "$FENCED" ]; then
  echo "$FENCED" >&2
  echo "benchmark-only names used under crates/*/src (see above)" >&2
  exit 1
fi

echo "== cargo build --release"
cargo build --release

echo "== cargo test --workspace -q"
# Every suite of every workspace member. Tier-1's `cargo test -q` runs
# the same suites minus the vendored stand-ins' own unit tests (the
# workspace's `default-members` are the root package and `crates/*`).
# That includes the gates earlier revisions ran one by one:
# - engine equivalence (seq vs epoch/sharded at 1/2/8 workers): both
#   policies of the window loop byte-for-byte against the sequential
#   oracle — netsim `window` fixtures (incl. the checked lookahead
#   promise), faults/tests/parallel_determinism.rs, and
#   bench/tests/engine_equivalence.rs (every golden scenario's
#   fingerprint, obs trace and metrics snapshot).
# - golden RIB-fingerprint regression (bench/tests/golden_regression.rs):
#   observability defaults off there, so it doubles as the gate that the
#   disabled obs path cannot drift golden results.
# - observability unit tests (obs).
# - wire mode (DESIGN.md §14): bgp-wire codec round-trip and corner-case
#   proptests; bench/tests/wire_mode.rs (every golden scenario in
#   encode-decode-verify and bytes-only modes reproduces struct mode's
#   fingerprints and obs traces on seq + sharded); update-group packing
#   (core/tests/wire_fanout.rs, bench/tests/wire_packing.rs); the pcap
#   golden (bench/tests/pcap_golden.rs); the MRT reader fixtures
#   (workload/tests/mrt_fixtures.rs).
# bench/tests/engine_equivalence.rs (~25 s, twice the next slowest) is
# `#[ignore]`d to keep Tier-1 near two minutes from a cold build; it
# runs here, on its own line.
TEST_T0=$SECONDS
cargo test --workspace -q
cargo test -q -p abrr-bench --test engine_equivalence -- --ignored
echo "workspace tests: $((SECONDS - TEST_T0)) s wall"

echo "== results/ regenerated and diffed (~4 min)"
# Every results/*.txt artefact from scripts/results.sh's one
# (artefact, bin, flags) table, into a temp dir, diffed against the
# checked-in file: a behaviour change that moves a published number
# fails here. Not Tier-1: fig6 and fig7 take about a minute each.
scripts/results.sh --check

echo "== benchmark package builds against crates/ and passes its smoke test (~1 min)"
# benchmark/ is a stand-alone package, not a workspace member, so
# nothing above compiles it: an API change under crates/ that breaks
# benchmark/src/kernels.rs would otherwise surface only at the next
# benchmark run. Shares the workspace's target directory, as
# benchmark/run.sh does.
cargo build --release --offline --manifest-path benchmark/Cargo.toml --target-dir target
cargo test --offline --manifest-path benchmark/Cargo.toml --target-dir target

echo "== cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== scale smoke (epoch + sharded, ~15 s)"
cargo build --release -p abrr-bench --bin scale
./target/release/scale --workload churn --engine epoch:2 --prefixes 200 --minutes 1
./target/release/scale --workload failover --engine epoch:2 --prefixes 200 --minutes 1
./target/release/scale --workload churn --engine sharded:2 --prefixes 200 --minutes 1

echo "== tier1-scale smoke (20K prefixes, sharded engine, RSS budget)"
# Exercises the RIB storage at a bounded Tier-1 scale: must complete,
# quiesce, and stay under a peak-RSS budget (the compact-storage
# regression tripwire). The budget is 1.10x the 1 062 404 kB this run
# measured with prefix-hashed maps under the index and the sparse
# tables (PR 27; a repeat read 1 063 124 kB — same-seed RSS repeats to
# 0.1 %, which is what lets the margin be this thin). With Patricia
# tries there (PRs 20-26) it took 1 212 800 kB (PR 24 recorded
# 1 208 780), so reverting to them fails here; under the old
# 1.15 x 1 208 780 = 1 390 000 it would not. Under `--engine seq` the
# same run reads 962 800 kB (tries: 1 086 524).
TIER1_OUT=$(mktemp)
./target/release/scale --workload churn --engine sharded:2 \
  --prefixes 20000 --minutes 1 --out "$TIER1_OUT"
TIER1_RSS_KB=$(sed -n 's/.*"peak_rss_kb":\([0-9]*\).*/\1/p' "$TIER1_OUT")
TIER1_QUIESCED=$(sed -n 's/.*"quiesced":\(true\|false\).*/\1/p' "$TIER1_OUT")
rm -f "$TIER1_OUT"
TIER1_RSS_BUDGET_KB=1168600 # 1.10 x 1 062 404 kB
if [ "$TIER1_QUIESCED" != "true" ]; then
  echo "tier1-scale smoke: did not quiesce" >&2
  exit 1
fi
if [ -z "$TIER1_RSS_KB" ] || [ "$TIER1_RSS_KB" -gt "$TIER1_RSS_BUDGET_KB" ]; then
  echo "tier1-scale smoke: peak RSS ${TIER1_RSS_KB:-unknown} kB exceeds budget ${TIER1_RSS_BUDGET_KB} kB" >&2
  exit 1
fi
echo "tier1-scale smoke OK: peak RSS ${TIER1_RSS_KB} kB (budget ${TIER1_RSS_BUDGET_KB} kB)"

echo "== examples on the codec and the MRT trace format (~5 s)"
# wire_session asserts the OPEN capabilities and add-paths UPDATEs
# survive the codec; tier1_replay asserts its churn trace survives
# BGP4MP_ET export -> import record for record before replaying it.
cargo build --release --examples
./target/release/examples/wire_session
./target/release/examples/tier1_replay

echo "== scenario corpus + fixed-seed fuzz smoke"
# Runs every gadget in examples/scenarios/ against its declared oracle
# checks (xfail gadgets must be *caught*), then 25 generated scenarios
# through the full oracle stack; every case's engines_agree oracle
# compares the sequential, epoch-parallel, and AP-sharded engines, and
# its wire oracle re-runs the case in encode-decode-verify wire mode,
# which must match struct mode byte-for-byte.
# Fixed seed: a failure here is a regression in the generator, the
# engines, or the auditors — never flake. Non-zero exit on any bad
# verdict.
cargo build --release -p abrr-bench --bin scenario
./target/release/scenario --dir examples/scenarios --fuzz 25 --seed 2011 \
  --shrink-dir results/shrunk

echo "CI OK"
