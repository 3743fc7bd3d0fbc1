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

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

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

echo "== the engine is chosen in netsim only"
# Every layer above netsim runs `Sim::run`. The window engine is kept
# for benchmark/, which times it, and bench/tests/engine_equivalence.rs
# holds it to the sequential loop; nothing else may name it.
ENGINE_USES=$(grep -rnE 'use netsim::(Engine\b|\{[^}]*\bEngine\b)|\bEngine::|\.run_engine\(' \
  crates/*/src crates/*/tests examples tests 2>/dev/null |
  grep -vE '^crates/netsim/' |
  grep -vE '^crates/bench/tests/engine_equivalence\.rs:' || true)
if [ -n "$ENGINE_USES" ]; then
  echo "$ENGINE_USES" >&2
  echo "netsim::Engine or run_engine used outside netsim and engine_equivalence.rs (see above)" >&2
  exit 1
fi

echo "== the scenario format is read and written by its codec only"
# Each scenario record declares its keys once (crates/scenario/src/
# schema.rs), and the codec in crates/scenario/src/parse.rs both reads
# and writes them; no other scenario module may walk JSON values, or it
# would be a second, hand-kept copy of the format.
FORMAT_USES=$(grep -rnE 'as_map\(|as_seq\(|Value::Map|Value::Seq|serde::json::' crates/scenario/src |
  grep -vE '^crates/scenario/src/parse\.rs:' || true)
if [ -n "$FORMAT_USES" ]; then
  echo "$FORMAT_USES" >&2
  echo "JSON values handled outside the scenario codec (see above)" >&2
  exit 1
fi

echo "== one JSON model: serde is a Value and its codec"
# JSON is read and written by walking serde::Value (the scenario codec,
# obs traces, benchmark results). There is no trait-based mapping of
# Rust types: a derived Deserialize would be a public parser that skips
# every constructor invariant, and a derived Serialize a second,
# unchecked spelling of a type.
DERIVES=$(grep -rnE '\bderive\([^)]*\b(Serialize|Deserialize)\b|\bserde_derive\b|\btrait (Serialize|Deserialize)\b' \
  crates vendor examples tests || true)
if [ -n "$DERIVES" ]; then
  echo "$DERIVES" >&2
  echo "Serialize/Deserialize derives, traits or serde_derive (see above)" >&2
  exit 1
fi

echo "== paper values live in scorecard rows"
# Each paper value is written once, in a row of crates/bench/src/
# experiments/scorecard.rs, beside the artefact number it is compared
# with; the other experiments print measurements only. A paper value or
# a claim an experiment prints beside its numbers would be a second,
# unchecked copy, one that goes stale or false when the numbers move.
PAPER_COPIES=$(grep -nE '\[paper|# paper:|Paper checks|Paper mechanisms|Takeaway check|# Expected:' \
  crates/bench/src/experiments/*.rs |
  grep -vE '^crates/bench/src/experiments/scorecard\.rs:' || true)
if [ -n "$PAPER_COPIES" ]; then
  echo "$PAPER_COPIES" >&2
  echo "paper values or claims printed outside scorecard.rs (see above)" >&2
  exit 1
fi

echo "== every declared dependency is used"
# Each [dependencies] and [dev-dependencies] entry of a
# crates/*/Cargo.toml must be named as a path (`bgp_types::`,
# `serde::`) under its crate's src/ or tests/, and each of the root
# package's under examples/ or tests/ (its only sources).
UNUSED_DEPS=$(for manifest in Cargo.toml crates/*/Cargo.toml; do
  if [ "$manifest" = Cargo.toml ]; then
    sources="examples tests"
  else
    dir=${manifest%/Cargo.toml}
    sources="$dir/src $dir/tests"
  fi
  awk '/^\[/ { deps = /^\[(dev-)?dependencies\]$/; next }
       deps && /^[A-Za-z0-9_-]+[ .=]/ { sub(/[ .=].*/, ""); print }' "$manifest" |
    while read -r dep; do
      # shellcheck disable=SC2086 # $sources is a list of directories
      grep -rqE "\b${dep//-/_}::" $sources 2>/dev/null ||
        echo "$manifest: $dep"
    done
done)
if [ -n "$UNUSED_DEPS" ]; then
  echo "$UNUSED_DEPS" >&2
  echo "declared dependencies no source or test file names (see above)" >&2
  exit 1
fi

echo "== audited files: every panic site states its invariant"
# The files ROADMAP item 5(a) has audited. In their non-test code (the
# lines before a file's first `#[cfg(test)]`) each `unwrap()`,
# `expect(`, `panic!` or `unreachable!` must sit directly under a
# comment block holding `// Invariant:`, the condition that makes it a
# bug rather than an input the caller can send. A new site either
# states its condition or becomes an error path.
AUDITED="crates/bgp-wire/src/*.rs crates/core/src/wire.rs crates/core/src/msg.rs
  crates/core/src/roles/*.rs crates/core/src/lib.rs
  crates/workload/src/mrt.rs crates/bench/src/fingerprint.rs crates/obs/src/metrics.rs
  crates/bgp-types/src/intern.rs crates/bgp-types/src/route.rs crates/bgp-types/src/asn.rs
  crates/core/src/spec.rs crates/core/src/node.rs crates/core/src/index.rs
  crates/scenario/src/check.rs crates/bench/src/cli.rs
  crates/obs/src/trace.rs crates/obs/src/pcap.rs crates/obs/src/profile.rs
  crates/bgp-rib/src/rib.rs crates/bgp-rib/src/store.rs crates/workload/src/tier1.rs
  crates/netsim/src/queue.rs crates/bgp-types/src/trie.rs crates/bgp-types/src/prefix.rs
  crates/bgp-types/src/partition.rs crates/netsim/src/sim.rs
  crates/scenario/src/parse.rs crates/scenario/src/shrink.rs crates/bench/src/pipeline.rs
  crates/bench/src/experiments/correctness.rs crates/bench/src/experiments/scale.rs
  crates/bench/src/experiments/resilience.rs crates/bench/src/experiments/convergence.rs"
# shellcheck disable=SC2086 # $AUDITED is a list of files and globs
UNSTATED=$(awk '
  FNR == 1 { done = 0; incomment = 0 }
  done { next }
  /^[[:space:]]*#\[cfg\(test\)\]/ { done = 1; next }
  /^[[:space:]]*\/\// {
    if (!incomment) { stated = 0; incomment = 1 }
    if (/\/\/ Invariant:/) stated = 1
    next
  }
  /unwrap\(\)|expect\(|panic!|unreachable!/ && !(incomment && stated) {
    print FILENAME ":" FNR ":" $0
  }
  { incomment = 0 }
' $AUDITED)
if [ -n "$UNSTATED" ]; then
  echo "$UNSTATED" >&2
  echo "unwrap/expect/panic!/unreachable! without an \`// Invariant:\` comment directly above (see above)" >&2
  exit 1
fi

echo "== no public function lives for tests alone"
# Every `pub fn` in the non-test code of crates/*/src (the lines before
# a file's first `#[cfg(test)]`, as above) must be used at least once in
# the non-test code of crates/*/src, examples/ and benchmark/src, read
# with comments and `fn NAME` definitions removed. A use is a call
# (`name(`, `name::<`), a method or path (`.name`, `::name`) or a name
# passed as a value (`(name)`, `, name,`, `= name,` as the scenario
# schema's macro takes its visitors). A word in a doc comment or a
# binding that shares the name is not a use. A public function only
# tests call is a capability no run has; it moves into the test that
# needs it or goes. Exempt, one line each with its reason: test hooks
# that read or settle production state.
TEST_HOOKS="
arr_paths_from    misconfig.rs reads an ARR-plane Adj-RIB-In per peer
dropped_messages  determinism.rs, sim_behaviour.rs and fault_injection.rs read a run's drop count
golden_dir        four bench test suites locate tests/golden through it
group_ids         node.rs's gauge test sums a RIB-Out's prefixes per group
pending_len       mrai.rs's and node.rs's tests count a pacer's deferred updates
purge             intern_heap_bytes.rs sweeps dead slots so its gauge counts only the sets it interns
scenarios         three bench test suites walk the golden scenarios through it
"
non_test() { awk 'FNR == 1 { done = 0 } /^[[:space:]]*#\[cfg\(test\)\]/ { done = 1 } !done' "$@"; }
CRATE_SRC=$(find crates/*/src -name '*.rs' | sort)
# shellcheck disable=SC2086 # $CRATE_SRC is a list of files
USED=$(non_test $CRATE_SRC $(find examples benchmark/src -name '*.rs' | sort) |
  sed -E 's#//.*##; s/\bfn [A-Za-z_][A-Za-z0-9_]*//g' |
  grep -oP '\b\w+(?=\s*(\(|::<))|(?<=\.|::)\w+|(?<=[(,=])\s*\w+(?=\s*[,);])' |
  tr -d '[:blank:]' | sort -u)
# shellcheck disable=SC2086 # $CRATE_SRC is a list of files
TEST_ONLY=$(non_test $CRATE_SRC | sed -nE 's/.*\bpub fn ([A-Za-z_][A-Za-z0-9_]*).*/\1/p' | sort -u |
  grep -vxF -f <(echo "$USED") -f <(awk 'NF { print $1 }' <<<"$TEST_HOOKS") || true)
if [ -n "$TEST_ONLY" ]; then
  echo "$TEST_ONLY" >&2
  echo "public functions no non-test code uses (see above)" >&2
  exit 1
fi

echo "== cargo build --release"
cargo build --release

echo "== cargo test --workspace -q"
# Every suite of every workspace member. Tier-1's `cargo test -q` runs
# the same suites minus the vendored stand-ins' own unit tests (the
# workspace's `default-members` are the root package and `crates/*`).
# That includes the gates earlier revisions ran one by one:
# - engine equivalence (seq vs epoch/sharded): both policies of the
#   window loop byte-for-byte against the sequential oracle — netsim
#   `window` fixtures (incl. the checked lookahead promise) and
#   bench/tests/engine_equivalence.rs (a faulted ABRR run, MRAI-paced
#   churn, TBRR load, both wire modes with pcap, the scenario corpus
#   and the fuzzer's fixed seeds: fingerprint, outcome, obs trace,
#   metrics snapshot).
# - golden RIB-fingerprint regression (bench/tests/golden_regression.rs):
#   observability defaults off there, so it doubles as the gate that the
#   disabled obs path cannot drift golden results.
# - observability unit tests (obs).
# - wire mode (DESIGN.md §14): bgp-wire codec round-trip and corner-case
#   proptests; core's wire unit tests (every message shape decodes to
#   the canonical form of what was sent, at its wire_bytes length);
#   bench/tests/wire_mode.rs (every golden scenario in bytes mode
#   reproduces struct mode's fingerprints and obs traces); update-group
#   packing (core/tests/wire_fanout.rs, bench/tests/wire_packing.rs);
#   the pcap golden (bench/tests/pcap_golden.rs); the MRT reader
#   fixtures (workload/tests/mrt_fixtures.rs).
TEST_T0=$SECONDS
cargo test --workspace -q
echo "workspace tests: $((SECONDS - TEST_T0)) s wall"

echo "== results/ regenerated and diffed (~4 min)"
# Every results/*.txt artefact from the (artefact, experiment, flags)
# rows `repro list` prints, into a temp dir, diffed against the
# checked-in file: a behaviour change that moves a published number
# fails here, and so does a results/ file no row writes or a row whose
# file is missing. Not Tier-1: fig6 and fig7 take about a minute each.
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

echo "== tier1-scale smoke (20K prefixes, RSS budget)"
# Exercises the RIB storage at a bounded Tier-1 scale: must complete,
# quiesce, and stay under a peak-RSS budget (the compact-storage
# regression tripwire). The budget is 1.10x the 547 848 kB this run
# measured with one prefix index per network, shared by every router
# (a repeat read 547 740 kB; same-seed RSS repeats to 0.3 %, which is
# what lets the margin be this thin). History: a prefix index per
# router before it read 574 244 / 574 108 kB (budget 1.10x 574 464 kB,
# measured with each attribute set a 56-byte head and one word tail).
# The sets with four `Vec`
# headers and a `Vec` per AS_PATH segment before it read 644 016 /
# 643 888 kB (budget 1.10x 644 004 kB, measured with the RIB columns in
# fixed pages, two Adj-RIB-In routes inline in a row, and one attribute
# set per (prefix, peer AS) in the model). The
# doubling `Vec` columns of one `Vec` per row before it read 755 288 /
# 755 312 kB (budget 1.10x 753 872 kB, measured with the MRAI buffers
# as sorted runs and the border's eBGP routes in flat `Vec`s), so
# reverting to them fails here. The B-tree MRAI buffers and border maps
# before that read 936 032 / 935 968 kB (budget 1.10x 935 404 kB,
# measured with the flat attribute interner). The per-hash `Vec` interner before that read 962 528 / 962 380 kB (budget
# 1.10x 961 448 kB). Until the engine choice left the experiments the
# smoke ran `sharded:2`, at 1 062 404 kB with prefix-hashed maps (PR 27;
# the same run on `seq` read 962 800 kB) and 1 212 800 kB with Patricia
# tries (PRs 20-26; PR 24 recorded 1 208 780, and 1 086 524 on `seq`).
TIER1_OUT=$(mktemp)
./target/release/repro scale --workload churn --prefixes 20000 --minutes 1 \
  --out "$TIER1_OUT"
TIER1_RSS_KB=$(sed -n 's/.*"peak_rss_kb":\([0-9]*\).*/\1/p' "$TIER1_OUT")
TIER1_QUIESCED=$(sed -n 's/.*"quiesced":\(true\|false\).*/\1/p' "$TIER1_OUT")
rm -f "$TIER1_OUT"
TIER1_RSS_BUDGET_KB=602633 # 1.10 x 547 848 kB
if [ "$TIER1_QUIESCED" != "true" ]; then
  echo "tier1-scale smoke: did not quiesce" >&2
  exit 1
fi
if [ -z "$TIER1_RSS_KB" ] || [ "$TIER1_RSS_KB" -gt "$TIER1_RSS_BUDGET_KB" ]; then
  echo "tier1-scale smoke: peak RSS ${TIER1_RSS_KB:-unknown} kB exceeds budget ${TIER1_RSS_BUDGET_KB} kB" >&2
  exit 1
fi
echo "tier1-scale smoke OK: peak RSS ${TIER1_RSS_KB} kB (budget ${TIER1_RSS_BUDGET_KB} kB)"

echo "== bytes-mode smoke (2K prefixes): the same live attribute sets as structs (~6 s)"
# A byte-mode receiver finds an attribute set by its block's bytes
# (DESIGN.md §14, "Interning by bytes"). The same churn run must
# quiesce in both wire modes and end with the same live interned sets:
# an index that kept a dead set alive, or made a second copy of a live
# one, moves intern_entries here, at a scale no unit test reaches. Both
# modes read 42 903.

# Prints a run's intern_entries, failing when the run did not quiesce.
smoke_entries() {
  local out
  out=$(mktemp)
  ./target/release/repro scale --workload churn --prefixes 2000 --minutes 1 \
    --wire "$1" --out "$out" >/dev/null
  if ! grep -q '"quiesced":true' "$out"; then
    echo "bytes-mode smoke: --wire $1 did not quiesce" >&2
    rm -f "$out"
    return 1
  fi
  sed -n 's/.*"intern_entries":\([0-9]*\).*/\1/p' "$out"
  rm -f "$out"
}
ENTRIES_OFF=$(smoke_entries off)
ENTRIES_BYTES=$(smoke_entries bytes)
if [ -z "$ENTRIES_OFF" ] || [ "$ENTRIES_OFF" != "$ENTRIES_BYTES" ]; then
  echo "bytes-mode smoke: intern_entries ${ENTRIES_BYTES:-unknown} in bytes mode, ${ENTRIES_OFF:-unknown} with structs" >&2
  exit 1
fi
echo "bytes-mode smoke OK: intern_entries ${ENTRIES_BYTES} in both wire modes"

echo "== examples on the codec, the MRT trace format and the gadgets (~5 s)"
# wire_session asserts the OPEN capabilities and add-paths UPDATEs
# survive the codec; tier1_replay asserts its churn trace survives
# BGP4MP_ET export -> import record for record before replaying it;
# med_oscillation asserts ABRR == full-mesh exits and the declared
# corpus checks on the MED and topology gadgets.
cargo build --release --examples
./target/release/examples/wire_session
./target/release/examples/tier1_replay
./target/release/examples/med_oscillation

echo "== scenario corpus + fixed-seed fuzz smoke"
# Runs every gadget in examples/scenarios/ against its declared oracle
# checks (xfail gadgets must be *caught*), then 25 generated scenarios
# through the full oracle stack; every case's wire oracle re-runs the
# case in bytes wire mode, which must match struct mode byte-for-byte.
# Fixed seed: a failure here is a regression in the generator, the
# simulator, or the auditors — never flake. Non-zero exit on any bad
# verdict.
./target/release/repro scenario --dir examples/scenarios --fuzz 25 --seed 2011 \
  --shrink-dir results/shrunk

echo "CI OK"
