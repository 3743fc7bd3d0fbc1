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

echo "== cargo build --release"
cargo build --release

echo "== cargo test -q"
cargo test -q

echo "== engine equivalence (seq vs epoch/sharded at 1/2/8 workers)"
# Gates both policies of the window loop byte-for-byte against the
# sequential oracle: protocol-level fixtures (incl. the checked
# lookahead promise), a faulted BGP run, and every golden scenario's
# fingerprint, obs trace and metrics snapshot.
cargo test -q -p netsim window
cargo test -q -p faults --test parallel_determinism
cargo test -q -p abrr-bench --test engine_equivalence

echo "== golden RIB-fingerprint regression (role engines vs recorded)"
# Observability defaults off here, so this doubles as the gate that the
# disabled obs path cannot drift golden results.
cargo test -q -p abrr-bench --test golden_regression

echo "== observability: unit tests"
cargo test -q -p obs

echo "== cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== scale smoke (epoch + sharded, ~15 s)"
cargo build --release -p abrr-bench --bin scale
./target/release/scale --workload churn --engine epoch:2 --prefixes 200 --minutes 1
./target/release/scale --workload failover --engine epoch:2 --prefixes 200 --minutes 1
./target/release/scale --workload churn --engine sharded:2 --prefixes 200 --minutes 1

echo "== tier1-scale smoke (20K prefixes, sharded engine, streamed churn, RSS budget)"
# Exercises the arena/trie storage and the streaming churn driver at a
# bounded Tier-1 scale: must complete, quiesce, and stay under a peak-RSS
# budget (the compact-storage regression tripwire; ~4x headroom over the
# recorded baseline so topology tweaks don't flake it).
TIER1_OUT=$(mktemp)
./target/release/scale --workload churn --engine sharded:2 \
  --prefixes 20000 --minutes 1 --stream --out "$TIER1_OUT"
TIER1_RSS_KB=$(sed -n 's/.*"peak_rss_kb":\([0-9]*\).*/\1/p' "$TIER1_OUT")
TIER1_QUIESCED=$(sed -n 's/.*"quiesced":\(true\|false\).*/\1/p' "$TIER1_OUT")
rm -f "$TIER1_OUT"
TIER1_RSS_BUDGET_KB=12000000 # 12 GB
if [ "$TIER1_QUIESCED" != "true" ]; then
  echo "tier1-scale smoke: did not quiesce" >&2
  exit 1
fi
if [ -z "$TIER1_RSS_KB" ] || [ "$TIER1_RSS_KB" -gt "$TIER1_RSS_BUDGET_KB" ]; then
  echo "tier1-scale smoke: peak RSS ${TIER1_RSS_KB:-unknown} kB exceeds budget ${TIER1_RSS_BUDGET_KB} kB" >&2
  exit 1
fi
echo "tier1-scale smoke OK: peak RSS ${TIER1_RSS_KB} kB (budget ${TIER1_RSS_BUDGET_KB} kB)"

echo "== wire mode: codec suites, golden differential sweep, pcap golden, MRT"
# The byte-level wire mode (DESIGN.md §14). Codec round-trip and
# corner-case proptests; every golden scenario in encode-decode-verify
# and bytes-only modes must reproduce struct mode's fingerprints and
# obs traces byte-for-byte on the seq + sharded engines; the pcap dump
# of the small reference scenario must match its blessed golden; the
# MRT reader fixtures must parse/skip exactly as recorded. The codec
# throughput bench must compile (rate itself is recorded out-of-band
# in BENCH_*.json, not timed in CI).
cargo test -q -p bgp-wire
cargo test -q -p abrr-bench --test wire_mode
cargo test -q -p abrr-bench --test pcap_golden
cargo test -q -p workload --test mrt_fixtures
cargo bench -p abrr-bench --bench codec --no-run

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
  --shrink-dir results/shrunk --overlays results/table_overlays.txt

echo "CI OK"
