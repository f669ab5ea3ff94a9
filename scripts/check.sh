#!/usr/bin/env bash
# One-command tier-1 gate: configure, build with all cores, run ctest.
# Usage: scripts/check.sh [build-dir]   (default: build)
#
# Every ctest pass runs once per (GEMM backend x quantization mode):
# DSSDDI_GEMM_BACKEND = reference, then blocked, each under
# DSSDDI_QUANTIZE = none, then int8 — so the SIMD/blocked kernels AND
# the int8 quantized serving path see the full suite, not just their
# unit tests. CHECK_GEMM_BACKENDS / CHECK_QUANTIZE_MODES override the
# lists, e.g. CHECK_GEMM_BACKENDS=reference CHECK_QUANTIZE_MODES=none
# for a single fast pass or a one-combination CI matrix leg.
#
# Opt-in sanitizer pass: set CHECK_SANITIZE to a -fsanitize list and a
# second build dir (<build-dir>-sanitize) is configured with it and ctest
# runs again (per backend) under the instrumented binaries — this is how
# the epoll / threading code AND the blocked SIMD kernels get exercised
# under ASan+UBSan:
#
#   CHECK_SANITIZE=address,undefined scripts/check.sh
#
# CHECK_SANITIZE_ONLY=1 skips the plain pass (for CI jobs that split the
# two builds across runners instead of paying for both in one job).
#
# Opt-in ThreadSanitizer pass: set CHECK_TSAN=1 and a third build dir
# (<build-dir>-tsan) is built with -fsanitize=thread and the
# concurrency-heavy suites (serve / net / obs / chaos) run under it.
# TSan cannot be combined with ASan, hence the separate leg; the sharded
# metrics registry, trace finalization, and the epoll frontend are the
# code this exists to check. CHECK_TSAN_ONLY=1 skips the plain pass.
#
# Opt-in chaos pass: set CHECK_CHAOS=1 and the chaos suite reruns under
# three fixed fault seeds (DSSDDI_CHAOS_SEED), then the cluster smoke
# script boots a real 3-replica cluster, kills a replica mid-load, and
# asserts /readyz flips and recovers with zero 5xx on /v1/suggest —
# then does the same drill against a 2-process SO_REUSEPORT shard
# cluster (kill a shard under load, zero non-200s, /shardz rejoin).
# Set CHECK_CHAOS_SANITIZE to a -fsanitize list to run this leg (seed
# matrix AND the process-level drill) against an instrumented build
# without paying for the full CHECK_SANITIZE suite. CHECK_CHAOS_ONLY=1
# skips the plain pass.
#
# Opt-in stress pass: set CHECK_STRESS=1 and the lock-free concurrency
# suites (flight recorder, sharded metrics, pipelined client) plus the
# serving suite (the request batcher's worker-pulled cuts, parked-worker
# admission and shutdown drain) rerun until one fails, up to 200 times.
# A torn seqlock read is an interleaving race that TSan cannot see
# (every access is atomic) and that a single pass hits only sometimes,
# so this leg wants a multi-core runner. CHECK_STRESS_ONLY=1 skips the
# plain pass.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
GEMM_BACKENDS="${CHECK_GEMM_BACKENDS:-reference blocked}"
QUANTIZE_MODES="${CHECK_QUANTIZE_MODES:-none int8}"

run_ctest() {
  local dir="$1"
  shift
  local backend quantize
  for backend in $GEMM_BACKENDS; do
    for quantize in $QUANTIZE_MODES; do
      echo "== ctest (${dir}, DSSDDI_GEMM_BACKEND=${backend}, DSSDDI_QUANTIZE=${quantize}) =="
      DSSDDI_GEMM_BACKEND="$backend" DSSDDI_QUANTIZE="$quantize" "$@" \
        ctest --test-dir "$dir" --output-on-failure -j "$(nproc)"
    done
  done
}

# Metric-naming lint: every metric family literal in src/ must follow
# the dssddi_ convention with a unit/kind suffix the exposition formats
# understand. Catches a typo'd family name at review time instead of on
# a dashboard weeks later.
lint_metric_names() {
  local bad
  bad=$(grep -rhoE '"dssddi_[A-Za-z0-9_]*"' src/ \
        | sort -u | tr -d '"' \
        | grep -vE '^dssddi_[a-z0-9]+(_[a-z0-9]+)*(_total|_ms|_bytes|_seconds|_info)?$' || true)
  if [[ -n "$bad" ]]; then
    echo "metric names violating ^dssddi_[a-z0-9_]+(_total|_ms|_bytes|_seconds|_info)?\$:" >&2
    echo "$bad" >&2
    return 1
  fi
}
echo "== metric-naming lint (src/) =="
lint_metric_names

# Legacy-format lint: the v3 bundle codec is a migration path, read only
# by bundle_convert and the tests. Any other includer would put v3 back
# on the serving path.
lint_bundle_v3_includes() {
  local bad
  bad=$(grep -rlE 'include[[:space:]]*[<"]io/bundle_v3\.h[>"]' src/ examples/ bench/ tests/ \
        | grep -vxE 'src/io/bundle_v3\.cc|examples/bundle_convert\.cpp|tests/.*' || true)
  if [[ -n "$bad" ]]; then
    echo "io/bundle_v3.h included outside bundle_convert and tests/:" >&2
    echo "$bad" >&2
    return 1
  fi
}
echo "== legacy bundle format lint (io/bundle_v3.h includers) =="
lint_bundle_v3_includes

# v3 -> v4 conversion gate: write a synthetic v3 bundle, convert it to
# the flat mmap format, and insist the zero-copy reload verifies its
# section checksums and scores bit-identically to the source in both
# float and int8 modes. This is the offline integrity pass the O(pages)
# v4 loader intentionally skips at serve time. Then the refusal step: a
# server pointed at the v3 file must exit non-zero (the loader names
# bundle_convert) and leave the file byte-for-byte as it was, never
# retrain over it. Exit 124 would mean serve_cli was still running
# (training) when the timeout killed it, so that fails too.
run_convert_selftest() {
  local dir="$1"
  echo "== bundle v3 -> v4 conversion selftest (${dir}) =="
  local tmp
  tmp=$(mktemp -d)
  "$dir"/examples/bundle_convert --synthetic "$tmp/model_v3.dssb"
  "$dir"/examples/bundle_convert "$tmp/model_v3.dssb" "$tmp/model_v4.dssb" \
    --selftest
  echo "== serve_cli refuses a v3 bundle without touching it (${dir}) =="
  cp "$tmp/model_v3.dssb" "$tmp/model_v3.orig"
  local status=0
  timeout 30 "$dir"/examples/serve_cli --model "$tmp/model_v3.dssb" \
    --requests 1 || status=$?
  if [[ "$status" -eq 0 || "$status" -eq 124 ]]; then
    echo "serve_cli on a v3 bundle exited ${status}; want a load error" >&2
    return 1
  fi
  cmp "$tmp/model_v3.dssb" "$tmp/model_v3.orig"
  rm -rf "$tmp"
}

if [[ -z "${CHECK_SANITIZE_ONLY:-}" && -z "${CHECK_TSAN_ONLY:-}" && -z "${CHECK_CHAOS_ONLY:-}" && -z "${CHECK_STRESS_ONLY:-}" ]]; then
  cmake -B "$BUILD_DIR" -S .
  cmake --build "$BUILD_DIR" -j "$(nproc)"
  run_ctest "$BUILD_DIR" env
  run_convert_selftest "$BUILD_DIR"
fi

if [[ -n "${CHECK_STRESS:-}" ]]; then
  echo "== stress pass (until-fail:200) in ${BUILD_DIR} =="
  cmake -B "$BUILD_DIR" -S .
  cmake --build "$BUILD_DIR" -j "$(nproc)" \
        --target obs_log_test obs_metrics_test pipeline_test serve_test
  ctest --test-dir "$BUILD_DIR" -R '^(obs_log_test|obs_metrics_test|pipeline_test|serve_test)$' \
        --repeat until-fail:200 --output-on-failure
fi

if [[ -n "${CHECK_CHAOS:-}" ]]; then
  CHAOS_DIR="$BUILD_DIR"
  if [[ -n "${CHECK_CHAOS_SANITIZE:-}" ]]; then
    CHAOS_DIR="${BUILD_DIR}-chaos-sanitize"
    echo "== chaos pass (-fsanitize=${CHECK_CHAOS_SANITIZE}) in ${CHAOS_DIR} =="
    cmake -B "$CHAOS_DIR" -S . -DDSSDDI_SANITIZE="$CHECK_CHAOS_SANITIZE" \
          -DCMAKE_BUILD_TYPE=RelWithDebInfo
    export ASAN_OPTIONS="detect_leaks=0" UBSAN_OPTIONS="halt_on_error=1"
  else
    cmake -B "$CHAOS_DIR" -S .
  fi
  cmake --build "$CHAOS_DIR" -j "$(nproc)" \
        --target chaos_test replica_cluster shard_cluster
  # Fixed seeds, not random: a failure reproduces with the seed in hand.
  for seed in 11 23 47; do
    echo "== chaos suite (DSSDDI_CHAOS_SEED=${seed}) =="
    DSSDDI_CHAOS_SEED="$seed" \
      ctest --test-dir "$CHAOS_DIR" -R '^chaos_test$' --output-on-failure
  done
  echo "== replica + shard cluster kill/recover drills =="
  scripts/cluster_smoke.sh "$CHAOS_DIR"
fi

if [[ -n "${CHECK_SANITIZE:-}" ]]; then
  SAN_DIR="${BUILD_DIR}-sanitize"
  echo "== sanitizer pass (-fsanitize=${CHECK_SANITIZE}) in ${SAN_DIR} =="
  cmake -B "$SAN_DIR" -S . -DDSSDDI_SANITIZE="$CHECK_SANITIZE" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$SAN_DIR" -j "$(nproc)"
  # Test fixtures intentionally leak a few process-lifetime singletons;
  # leak checking would only report those, so keep ASan focused on
  # use-after-free / overflow / races-made-visible.
  run_ctest "$SAN_DIR" env ASAN_OPTIONS="detect_leaks=0" UBSAN_OPTIONS="halt_on_error=1"
  ASAN_OPTIONS="detect_leaks=0" UBSAN_OPTIONS="halt_on_error=1" \
    run_convert_selftest "$SAN_DIR"
fi

if [[ -n "${CHECK_TSAN:-}" ]]; then
  TSAN_DIR="${BUILD_DIR}-tsan"
  echo "== ThreadSanitizer pass (concurrency suites) in ${TSAN_DIR} =="
  cmake -B "$TSAN_DIR" -S . -DDSSDDI_SANITIZE=thread \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$TSAN_DIR" -j "$(nproc)"
  # io_test rides along for the mmap lifecycle: concurrent suites swap
  # mapped bundles under load, so the map/unmap paths get TSan coverage.
  TSAN_TESTS='^(serve_test|net_test|pipeline_test|chaos_test|obs_metrics_test|obs_exposition_test|obs_log_test|obs_slo_test|quantize_serving_test|io_test)$'
  for backend in $GEMM_BACKENDS; do
    for quantize in $QUANTIZE_MODES; do
      echo "== tsan ctest (${TSAN_DIR}, DSSDDI_GEMM_BACKEND=${backend}, DSSDDI_QUANTIZE=${quantize}) =="
      DSSDDI_GEMM_BACKEND="$backend" DSSDDI_QUANTIZE="$quantize" \
        TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
        ctest --test-dir "$TSAN_DIR" -R "$TSAN_TESTS" \
        --output-on-failure -j "$(nproc)"
    done
  done
fi
