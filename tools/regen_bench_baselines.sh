#!/usr/bin/env bash
# Regenerates the committed perf-regression baselines in bench/baselines/.
#
# The recipe is pinned: every figure/table bench runs with
# `--quick --frames 120 --threads 1 --json` — the same workload the CI
# bench-smoke and bench-regression jobs use. The daemon baseline
# SOAK_overload.json is the snapshot of the overloaded soak_driver run in
# tools/soak_baseline.cmake, which the soak_overload_baseline ctest reruns. Results are deterministic
# (DESIGN.md Sect. 9), so a baseline only changes when the simulation or
# the report schema genuinely changes; wall-clock fields differ run to run
# but tools/bench_diff.py quarantines them.
#
# Usage: tools/regen_bench_baselines.sh [BUILD_DIR]   (default: build)
#
# Rerun this after any intentional behaviour change, eyeball the diff, and
# commit the updated BENCH_*.json files together with the change.

set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build}"
out="$repo/bench/baselines"

benches=(
  fig2_weighted_loss_above_rate
  fig3_weighted_loss_below_rate
  fig4_benefit_vs_rate
  fig5_optimal_slice_granularity
  fig6_weighted_loss_slice_granularity
  fig_robustness
  tab_tradeoff
  tab_competitive
  tab_lossless
  tab_alternatives
  abl_proactive
  abl_jitter
  abl_dependency
  abl_tandem
  gateway
)

mkdir -p "$out"
for bench in "${benches[@]}"; do
  bin="$build/bench/$bench"
  if [[ ! -x "$bin" ]]; then
    echo "missing $bin — build the bench targets first" >&2
    exit 1
  fi
  echo "baseline: $bench"
  "$bin" --quick --frames 120 --threads 1 --json "$out/BENCH_$bench.json" \
    > /dev/null
done

soak="$build/tools/soak_driver"
if [[ ! -x "$soak" ]]; then
  echo "missing $soak — build the soak_driver target first" >&2
  exit 1
fi
echo "baseline: SOAK_overload"
cmake -DSOAK="$soak" -DBASELINE="$out/SOAK_overload.json" -DUPDATE=ON \
  -P "$repo/tools/soak_baseline.cmake"

echo "wrote $((${#benches[@]} + 1)) baselines to $out"
