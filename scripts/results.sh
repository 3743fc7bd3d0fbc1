#!/usr/bin/env bash
# Regenerates every results/*.txt artefact from the rows `repro list`
# prints (each experiment declares the artefacts it publishes):
#
#   scripts/results.sh           # rewrite results/ in place
#   scripts/results.sh --check   # regenerate into a temp dir, diff
#                                # against results/, fail on any change,
#                                # on a row whose file is missing and on
#                                # a file in results/ that no row writes
#
# A row is (artefact, experiment, flags). The experiment's stdout is the
# artefact, except where the flags name @OUT@: that run writes the file
# itself. fig6 and fig7 take about a minute each; the rest seconds.
set -euo pipefail
cd "$(dirname "$0")/.."

check=0
case "${1:-}" in
  "") ;;
  --check) check=1 ;;
  *) echo "usage: scripts/results.sh [--check]" >&2; exit 2 ;;
esac

cargo build --release -q -p abrr-bench --bin repro
repro=./target/release/repro
mapfile -t ROWS < <("$repro" list)
if [ "${#ROWS[@]}" = 0 ]; then
  echo "results: \`repro list\` printed no rows" >&2
  exit 1
fi
out=results
if [ "$check" = 1 ]; then
  out=$(mktemp -d)
  trap 'rm -rf "$out"' EXIT
fi

failed=0
if [ "$check" = 1 ]; then
  written=" "
  for row in "${ROWS[@]}"; do
    read -r artefact _ <<<"$row"
    written+="$artefact "
    if [ ! -f "results/$artefact" ]; then
      echo "results/$artefact: missing (written by \`repro list\` row: $row)" >&2
      failed=$((failed + 1))
    fi
  done
  for path in results/*; do
    [ -f "$path" ] || continue
    if [[ "$written" != *" ${path#results/} "* ]]; then
      echo "$path: no \`repro list\` row writes it" >&2
      failed=$((failed + 1))
    fi
  done
fi

for row in "${ROWS[@]}"; do
  read -r artefact experiment flags <<<"$row"
  path="$out/$artefact"
  echo "== $artefact: $experiment ${flags:-}"
  if [[ "${flags:-}" == *@OUT@* ]]; then
    # shellcheck disable=SC2086 # flags are word lists
    "$repro" "$experiment" ${flags//@OUT@/$path} >/dev/null
  else
    # shellcheck disable=SC2086
    "$repro" "$experiment" $flags >"$path"
  fi
  if [ "$check" = 1 ] && [ -f "results/$artefact" ] && ! diff -u "results/$artefact" "$path"; then
    failed=$((failed + 1))
  fi
done

if [ "$failed" -gt 0 ]; then
  echo "results: $failed problem(s) with the ${#ROWS[@]} artefacts in results/" >&2
  exit 1
fi
echo "results: ${#ROWS[@]} artefacts $([ "$check" = 1 ] && echo "match results/" || echo "written")"
