#!/usr/bin/env bash
# End-to-end benchmark snapshot. Runs every workload that BENCHMARK.json
# declares with its command and `--seed 1`, once with `--trace 0` (the
# end-to-end metrics) and once with `--trace 1` (the per-layer metrics), and
# writes each run's JSON result (its last stdout line) with the commit and
# the host CPU count.
#
#   scripts/bench_e2e.sh [--seconds S] [--out PATH]
#
# S defaults to BENCHMARK.json's `run_seconds`, PATH to BENCH_e2e.json.
# Exits non-zero if a run fails or reports `"correct": false`. Leaves
# `perfbench/Cargo.lock` as it found it.
set -euo pipefail
cd "$(dirname "$0")/.."

seconds=$(jq -r .run_seconds BENCHMARK.json)
out=BENCH_e2e.json
while [ $# -gt 0 ]; do
  case "$1" in
    --seconds) seconds=$2; shift 2 ;;
    --out) out=$2; shift 2 ;;
    *) echo "usage: $0 [--seconds S] [--out PATH]" >&2; exit 2 ;;
  esac
done

# Building the benchmark package rewrites its lock file; put it back on exit.
lock="$(mktemp)"
cp perfbench/Cargo.lock "$lock"
trap 'cp "$lock" perfbench/Cargo.lock; rm -f "$lock"' EXIT

mapfile -t cmd < <(jq -r '.command[]' BENCHMARK.json)
results='{}'
for w in $(jq -r '.workloads[].name' BENCHMARK.json); do
  for trace in 0 1; do
    echo "== $w --trace $trace ($seconds s) ==" >&2
    line=$("${cmd[@]}" --workload "$w" --seed 1 --seconds "$seconds" --trace $trace | tail -n 1)
    if ! jq -e '.correct == true and .failed == 0' <<<"$line" >/dev/null; then
      echo "$w --trace $trace: run not correct: $line" >&2
      exit 1
    fi
    key=$([ $trace = 0 ] && echo end_to_end || echo per_layer)
    results=$(jq --arg w "$w" --arg k "$key" --argjson r "$line" '.[$w][$k] = $r' <<<"$results")
  done
done

jq -n --arg commit "$(git describe --always --dirty --abbrev=12 2>/dev/null || echo unknown)" \
  --argjson host_cpus "$(nproc)" --argjson seconds "$seconds" --argjson workloads "$results" \
  '{commit: $commit, host_cpus: $host_cpus, seed: 1, seconds: $seconds, workloads: $workloads}' >"$out"
echo "wrote $out" >&2
