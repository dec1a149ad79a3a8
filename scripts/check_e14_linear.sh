#!/usr/bin/env bash
# E14 linearity gate: guards the single-shard serving path against cost
# per committed put that grows with history.
#
# Absolute times are useless across CI machines, so the gate is the
# RATIO of cpu_time at two run lengths of the same workload, in the same
# process: BM_E14SingleShardPuts/4096 / BM_E14SingleShardPuts/1024 (one
# commit-eTOB shard of 3 replicas, uniform keys; each point is the best
# of 5 repetitions). Linear cost would make it 4. Measured on a shared
# 4-core x86-64 host, Release, over 12 runs: 12.1-18.1 while every commit
# message re-shipped the whole committed prefix and every adoption
# re-added it to the causality graph; 6.4-9.7 once commits ship only the
# content some replica cannot yet name and adoption rebases only the new
# suffix. What is left above 4 is O(history) copying per d_i change
# (delivery, the replica's drain, prefix checks). The threshold sits
# between the two ranges, so noise passes and a return of either
# O(history) commit term fails.
#
# A point also fails when it committed fewer puts than it issued: its
# cpu_time would then time a shorter run than the ratio assumes.
#
# Usage: scripts/check_e14_linear.sh [BUILD_DIR]   (default: build/release)
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-$repo_root/build/release}"
max_ratio=10.5
repetitions=5

bench="$build_dir/bench/bench_e14_sharded"
if [ ! -x "$bench" ]; then
  echo "error: $bench not found — build the benches first" >&2
  exit 1
fi

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

"$bench" \
  --benchmark_filter='BM_E14SingleShardPuts/(1024|4096)$' \
  --benchmark_repetitions="$repetitions" \
  --benchmark_out="$tmpdir/e14.json" \
  --benchmark_out_format=json

python3 - "$tmpdir/e14.json" "$max_ratio" <<'PY'
import json
import sys

path, max_ratio = sys.argv[1], float(sys.argv[2])
best = {}
for b in json.load(open(path))["benchmarks"]:
    if b.get("run_type", "iteration") != "iteration":
        continue  # mean/median/stddev aggregates
    name = b.get("run_name", b["name"])
    # A run the horizon cut off times fewer puts than its name says.
    if b.get("error_occurred"):
        sys.exit(f"e14 linearity gate FAILED: {name}: {b.get('error_message', 'error')}")
    puts = int(name.rsplit("/", 1)[1])
    if float(b.get("committed", 0)) < puts:
        sys.exit(
            f"e14 linearity gate FAILED: {name} committed "
            f"{b.get('committed', 0):.0f} of {puts} puts"
        )
    best[name] = min(best.get(name, float("inf")), float(b["cpu_time"]))

try:
    short = best["BM_E14SingleShardPuts/1024"]
    long = best["BM_E14SingleShardPuts/4096"]
except KeyError as missing:
    sys.exit(f"e14 linearity gate: benchmark {missing} missing from output")

ratio = long / short
verdict = "OK" if ratio <= max_ratio else "FAILED"
print(
    f"e14 linearity gate {verdict}: 4096 puts {long:.1f} ms / 1024 puts "
    f"{short:.1f} ms = {ratio:.1f}x (linear 4.0x, threshold {max_ratio:.1f}x)"
)
sys.exit(0 if ratio <= max_ratio else 1)
PY
