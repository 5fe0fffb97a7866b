#!/usr/bin/env bash
# Run the RSMI benchmark drivers.
#
# Usage:
#   tools/run_benches.sh [--smoke] [--build-dir DIR] [--out DIR] [FILTER]
#   tools/run_benches.sh --pr2-json [FILE]
#   tools/run_benches.sh --regression-out DIR
#
#   --smoke       Tiny configuration (RSMI_BENCH_N=2000, 20 queries,
#                 min benchmark time 0.01s) — the same setup CI uses via
#                 the `bench_smoke` ctest label. Seconds per bench.
#   --build-dir   Build tree containing bench/ binaries (default: build).
#   --out         Write one JSON file per bench into DIR
#                 (--benchmark_out, format json).
#   --pr2-json    Run only bench_throughput_scale at the PR-2 acceptance
#                 configuration (uniform 1M points, threads x index sweep)
#                 and write Google Benchmark JSON to FILE (default:
#                 BENCH_PR2.json). Index kinds default to the fast bulk
#                 builders (Grid|HRR|KDB|ZM) so the snapshot stays
#                 minutes, not hours; override with RSMI_PR2_FILTER=.
#                 RSMI_PR2_N overrides the point count. Meaningful
#                 scaling numbers require >= 8 physical cores.
#   --regression-out  Run the pinned perf-regression micro-benches
#                 (bench_inference + bench_fig08_point_scale at smoke
#                 scale, 3 repetitions) and write DIR/bench_inference.json
#                 and DIR/bench_point.json — the exact invocation of the
#                 CI bench-regression gate — plus DIR/bench_shard.json
#                 (bench_shard_scale RSMI build/point cells, from which
#                 check_bench_regression.py records the sharded-vs-
#                 monolithic point-latency ratio; recorded, not gated)
#                 and DIR/bench_persistence.json (SaveIndex/LoadIndex
#                 MB/s through the index-container format; recorded via
#                 check_bench_regression.py --persistence, not gated)
#                 and DIR/bench_updates.json (mixed read/write cells,
#                 delta-buffered vs exclusive-writer; recorded via
#                 check_bench_regression.py --updates, not gated)
#                 and DIR/bench_obs.json (instrumentation overhead,
#                 registry disabled vs enabled interleaved; gated hard at
#                 5% untraced overhead via check_bench_regression.py
#                 --obs; the traced server cells are recorded only)
#                 and DIR/bench_xmem.json (beyond-RAM cold queries
#                 through the mmap backend, prefetch on vs off, plus the
#                 RSS-budget window sweep; parity asserted inside the
#                 bench, cold latency recorded via
#                 check_bench_regression.py --xmem, not gated).
#                 Gate against the committed bench/BENCH_BASELINE.json
#                 with tools/check_bench_regression.py --baseline, or
#                 regenerate the snapshot with its --write-baseline mode.
#   FILTER        Only run benches whose name contains this substring.
set -euo pipefail

build_dir=build
out_dir=""
smoke=0
filter=""
pr2_json=""
regression_out=""

while [[ $# -gt 0 ]]; do
  case "$1" in
    --smoke) smoke=1; shift ;;
    --build-dir) build_dir="$2"; shift 2 ;;
    --out) out_dir="$2"; shift 2 ;;
    --pr2-json)
      pr2_json="BENCH_PR2.json"
      if [[ $# -gt 1 && "${2:-}" != --* ]]; then pr2_json="$2"; shift; fi
      shift ;;
    --regression-out) regression_out="$2"; shift 2 ;;
    -h|--help) grep '^#' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
    *) filter="$1"; shift ;;
  esac
done

bench_dir="$build_dir/bench"
if [[ ! -d "$bench_dir" ]]; then
  echo "error: $bench_dir not found — build first (cmake -B $build_dir -S . && cmake --build $build_dir -j)" >&2
  exit 1
fi

if [[ -n "$regression_out" ]]; then
  # The pinned configuration of the CI bench-regression gate. Everything
  # here — scale knobs, filters, repetition count — is part of the
  # contract with the committed baseline: change it and the baseline
  # must be regenerated.
  export RSMI_BENCH_SCALE=small RSMI_BENCH_N=2000 RSMI_BENCH_QUERIES=20
  export RSMI_BENCH_BUILD_THREADS=1
  mkdir -p "$regression_out"
  for b in bench_inference bench_fig08_point_scale bench_shard_scale bench_persistence bench_mixed_updates bench_observability bench_beyond_ram; do
    if [[ ! -x "$bench_dir/$b" ]]; then
      echo "error: $bench_dir/$b not found (Google Benchmark installed?)" >&2
      exit 1
    fi
  done
  echo "=== bench_inference (pinned) -> $regression_out/bench_inference.json ===" >&2
  "$bench_dir/bench_inference" \
    --benchmark_min_time=0.05 --benchmark_repetitions=3 \
    --benchmark_report_aggregates_only=false \
    --benchmark_out="$regression_out/bench_inference.json" \
    --benchmark_out_format=json
  echo "=== bench_fig08_point_scale (pinned) -> $regression_out/bench_point.json ===" >&2
  "$bench_dir/bench_fig08_point_scale" \
    --benchmark_filter='n2000/(RSMI|ZM)' --benchmark_repetitions=3 \
    --benchmark_out="$regression_out/bench_point.json" \
    --benchmark_out_format=json
  echo "=== bench_shard_scale (pinned) -> $regression_out/bench_shard.json ===" >&2
  "$bench_dir/bench_shard_scale" \
    --benchmark_filter='Shard/(Build|Point)/RSMI' --benchmark_repetitions=3 \
    --benchmark_report_aggregates_only=false \
    --benchmark_out="$regression_out/bench_shard.json" \
    --benchmark_out_format=json
  echo "=== bench_persistence (pinned) -> $regression_out/bench_persistence.json ===" >&2
  "$bench_dir/bench_persistence" \
    --benchmark_min_time=0.05 --benchmark_repetitions=3 \
    --benchmark_report_aggregates_only=false \
    --benchmark_out="$regression_out/bench_persistence.json" \
    --benchmark_out_format=json
  echo "=== bench_mixed_updates (pinned) -> $regression_out/bench_updates.json ===" >&2
  "$bench_dir/bench_mixed_updates" \
    --benchmark_filter='/w(00|10)/t1' --benchmark_repetitions=3 \
    --benchmark_report_aggregates_only=false \
    --benchmark_out="$regression_out/bench_updates.json" \
    --benchmark_out_format=json
  echo "=== bench_observability (pinned) -> $regression_out/bench_obs.json ===" >&2
  "$bench_dir/bench_observability" \
    --benchmark_min_time=0.05 --benchmark_repetitions=3 \
    --benchmark_report_aggregates_only=false \
    --benchmark_out="$regression_out/bench_obs.json" \
    --benchmark_out_format=json
  echo "=== bench_beyond_ram (pinned) -> $regression_out/bench_xmem.json ===" >&2
  "$bench_dir/bench_beyond_ram" \
    --benchmark_min_time=0.05 --benchmark_repetitions=3 \
    --benchmark_report_aggregates_only=false \
    --benchmark_out="$regression_out/bench_xmem.json" \
    --benchmark_out_format=json
  exit 0
fi

if [[ -n "$pr2_json" ]]; then
  bench="$bench_dir/bench_throughput_scale"
  if [[ ! -x "$bench" ]]; then
    echo "error: $bench not found (Google Benchmark installed?)" >&2
    exit 1
  fi
  export RSMI_BENCH_N="${RSMI_PR2_N:-1000000}"
  echo "=== bench_throughput_scale (n=$RSMI_BENCH_N) -> $pr2_json ===" >&2
  exec "$bench" \
    --benchmark_filter="${RSMI_PR2_FILTER:-/(Grid|HRR|KDB|ZM)/}" \
    --benchmark_out="$pr2_json" --benchmark_out_format=json
fi

extra_args=()
if [[ $smoke -eq 1 ]]; then
  export RSMI_BENCH_SCALE=small RSMI_BENCH_N=2000 RSMI_BENCH_QUERIES=20
  extra_args+=(--benchmark_min_time=0.01 --benchmark_repetitions=1)
fi
[[ -n "$out_dir" ]] && mkdir -p "$out_dir"

status=0
for bench in "$bench_dir"/bench_*; do
  [[ -x "$bench" ]] || continue
  name="$(basename "$bench")"
  [[ -n "$filter" && "$name" != *"$filter"* ]] && continue
  echo "=== $name ==="
  # ${arr[@]+...} guards empty-array expansion under `set -u` on bash < 4.4.
  args=(${extra_args[@]+"${extra_args[@]}"})
  [[ -n "$out_dir" ]] && args+=(--benchmark_out="$out_dir/$name.json" --benchmark_out_format=json)
  if ! "$bench" ${args[@]+"${args[@]}"}; then
    echo "FAILED: $name" >&2
    status=1
  fi
done
exit $status
