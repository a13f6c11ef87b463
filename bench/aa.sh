#!/bin/bash
# The A/A check: two sets of ten runs of the same code, alternating which
# set goes first, every workload, one seed per pair; then `bench compare`.
# Takes about 25 minutes. Usage: bash bench/aa.sh [outdir]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="${1:-$root/.bench_build/aa}"
mkdir -p "$out"
: > "$out/A.jsonl"
: > "$out/B.jsonl"
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$root/BENCHMARK.json")
workloads=$(grep -B1 '"why"' "$root/BENCHMARK.json" | sed -n 's/.*"name": *"\([a-z-]*\)".*/\1/p')
for seed in 1 2 3 4 5 6 7 8 9 10; do
  if (( seed % 2 )); then order="A B"; else order="B A"; fi
  for set in $order; do
    for w in $workloads; do
      line=$(bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)
      printf '{"workload":"%s","seed":%d,"result":%s}\n' "$w" "$seed" "$line" >> "$out/$set.jsonl"
      echo "set $set seed $seed $w done" >&2
    done
  done
done
cd "$root"
exec "$root/.bench_build/distbench" compare "$out/A.jsonl" "$out/B.jsonl" BENCHMARK.json
