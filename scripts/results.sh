#!/usr/bin/env bash
# Regenerates every results/*.txt artefact from the one table below:
#
#   scripts/results.sh           # rewrite results/ in place
#   scripts/results.sh --check   # regenerate into a temp dir, diff
#                                # against results/, fail on any change
#
# A row is (artefact, bin, flags). The bin's stdout is the artefact,
# except where the flags name @OUT@: that bin writes the file itself.
# fig6 and fig7 take about a minute each; the rest seconds.
set -euo pipefail
cd "$(dirname "$0")/.."

ROWS=(
  "fig3.txt            fig3           --prefixes 3000 --samples 5"
  "fig4.txt            fig4"
  "fig5.txt            fig5"
  "fig6.txt            fig6           --prefixes 1000"
  "fig6_balanced.txt   fig6           --prefixes 1000 --balanced"
  "fig7.txt            fig7"
  "table_updates.txt   table_updates"
  "event_trace.txt     event_trace"
  "convergence.txt     convergence"
  "correctness.txt     correctness"
  "sessions.txt        sessions"
  "resilience.txt      resilience"
  "table_overlays.txt  scenario       --no-corpus --overlays @OUT@"
)

check=0
case "${1:-}" in
  "") ;;
  --check) check=1 ;;
  *) echo "usage: scripts/results.sh [--check]" >&2; exit 2 ;;
esac

cargo build --release -q -p abrr-bench --bins
out=results
if [ "$check" = 1 ]; then
  out=$(mktemp -d)
  trap 'rm -rf "$out"' EXIT
fi

failed=0
for row in "${ROWS[@]}"; do
  read -r artefact bin flags <<<"$row"
  path="$out/$artefact"
  echo "== $artefact: $bin ${flags:-}"
  if [[ "${flags:-}" == *@OUT@* ]]; then
    # shellcheck disable=SC2086 # flags are word lists
    ./target/release/"$bin" ${flags//@OUT@/$path} >/dev/null
  else
    # shellcheck disable=SC2086
    ./target/release/"$bin" $flags >"$path"
  fi
  if [ "$check" = 1 ] && ! diff -u "results/$artefact" "$path"; then
    failed=$((failed + 1))
  fi
done

if [ "$failed" -gt 0 ]; then
  echo "results: $failed of ${#ROWS[@]} artefacts differ from results/" >&2
  exit 1
fi
echo "results: ${#ROWS[@]} artefacts $([ "$check" = 1 ] && echo "match results/" || echo "written")"
