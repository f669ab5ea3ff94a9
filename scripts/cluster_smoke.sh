#!/usr/bin/env bash
# Process-level kill/recover drill for the replicated serving stack.
# Usage: scripts/cluster_smoke.sh [build-dir]   (default: build)
#
# Boots examples/replica_cluster (3 replicas behind the router on an
# ephemeral port), drives /v1/suggest load — alternating JSON bodies and
# binary wire frames (Content-Type: application/x-dssddi, which the
# router sends over its pipelined replica connections) — stops a
# replica through /admin/replica mid-load, and asserts:
#
#   1. every /v1/suggest request answers 200 throughout the drill, and
#      every binary 200 carries a response frame (retries + breakers
#      absorb the dead replica),
#   2. /readyz reports the outage (available drops below the replica
#      count) and recovers to all-available after the restart,
#   3. the router's own metrics confirm zero 5xx on /v1/suggest.
#
# Then the shard drill: boots examples/shard_cluster (2 worker
# processes sharing one SO_REUSEPORT data port, reusing the bundle the
# replica drill trained), drives load on the shared port, stops one
# shard through the aggregator's /admin/shard mid-load, and asserts
# zero client-visible non-200s throughout plus /shardz rejoin after the
# restart.
#
# The chaos_test suite proves the same properties in-process; this
# script proves them against the real binaries with real sockets and a
# real process watching their banners — i.e. what an operator would do.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
CLUSTER_BIN="$BUILD_DIR/examples/replica_cluster"
SHARD_BIN="$BUILD_DIR/examples/shard_cluster"
[[ -x "$CLUSTER_BIN" ]] || { echo "error: $CLUSTER_BIN not built" >&2; exit 1; }
[[ -x "$SHARD_BIN" ]] || { echo "error: $SHARD_BIN not built" >&2; exit 1; }

WORK_DIR=$(mktemp -d)
CLUSTER_PID=""
SHARD_PID=""
cleanup() {
  for pid in "$CLUSTER_PID" "$SHARD_PID"; do
    if [[ -n "$pid" ]] && kill -0 "$pid" 2>/dev/null; then
      kill "$pid" 2>/dev/null || true
      wait "$pid" 2>/dev/null || true
    fi
  done
  rm -rf "$WORK_DIR"
}
trap cleanup EXIT

LOG="$WORK_DIR/cluster.log"
# setsid: the drill must be able to kill the cluster by pid without the
# signal ever reaching this script's process group.
setsid "$CLUSTER_BIN" --model "$WORK_DIR/model.dssb" --port 0 --replicas 3 \
  --threads 1 --duration 300 >"$LOG" 2>&1 &
CLUSTER_PID=$!

# The banner is fflush'd once all ports are bound; first boot trains a
# small bundle, so give it a while.
PORT="" WIDTH=""
for _ in $(seq 1 120); do
  if grep -q '^router on ' "$LOG" 2>/dev/null; then
    PORT=$(sed -nE 's|^router on http://[^:]+:([0-9]+).*|\1|p' "$LOG")
    WIDTH=$(sed -nE 's|^router on .*feature width ([0-9]+).*|\1|p' "$LOG")
    break
  fi
  kill -0 "$CLUSTER_PID" 2>/dev/null || { cat "$LOG" >&2; exit 1; }
  sleep 1
done
[[ -n "$PORT" && -n "$WIDTH" ]] || { echo "error: no banner" >&2; cat "$LOG" >&2; exit 1; }
BASE="http://127.0.0.1:$PORT"
echo "cluster up: router $BASE, feature width $WIDTH (pid $CLUSTER_PID)"

BODY="$WORK_DIR/body.json"
{
  printf '{"features":['
  for ((i = 0; i < WIDTH; ++i)); do
    ((i > 0)) && printf ','
    printf '0.1'
  done
  printf '],"k":3}'
} >"$BODY"

# The same request as a wire frame (src/net/wire.h, version 2): a
# 16-byte header (magic "DS", version, type 1 = suggest request, payload
# length, request_id), then patient_id -1 (no cache), deadline_ms 0,
# k 3, flags 0, reserved 0, trace_id 0, the feature count and the
# features as little-endian binary32.
FRAME="$WORK_DIR/body.bin"
REPLY="$WORK_DIR/reply.bin"
python3 - "$WIDTH" "$FRAME" <<'EOF'
import struct
import sys

width, path = int(sys.argv[1]), sys.argv[2]
payload = struct.pack("<qIHBBQI", -1, 0, 3, 0, 0, 0, width)
payload += struct.pack("<%df" % width, *([0.1] * width))
header = struct.pack("<HBBIQ", 0x4453, 2, 1, len(payload), 0)
with open(path, "wb") as out:
    out.write(header + payload)
EOF

FAILS=0
BINARY_SENT=0
drive() {  # drive N [base] — N suggest requests, JSON and binary in turn;
           # counts non-200s (and binary 200s without a response frame)
           # in FAILS
  local n="$1" base="${2:-$BASE}" code
  for ((r = 0; r < n; ++r)); do
    if ((r % 2 == 0)); then
      code=$(curl -s -o /dev/null -w '%{http_code}' --max-time 10 \
             -d @"$BODY" "$base/v1/suggest" || echo 000)
    else
      BINARY_SENT=$((BINARY_SENT + 1))
      code=$(curl -s -o "$REPLY" -w '%{http_code}' --max-time 10 \
             -H 'Content-Type: application/x-dssddi' \
             --data-binary @"$FRAME" "$base/v1/suggest" || echo 000)
      # Byte 3 of a frame is its type: 2 = suggest response.
      if [[ "$code" == 200 &&
            "$(od -An -tu1 -j3 -N1 "$REPLY" | tr -d ' ')" != 2 ]]; then
        code="200 without a response frame"
      fi
    fi
    if [[ "$code" != 200 ]]; then
      FAILS=$((FAILS + 1))
      echo "  non-200 on /v1/suggest: $code" >&2
    fi
  done
}

available() {  # parse "available":N out of /readyz (any status code)
  curl -s --max-time 5 "$BASE/readyz" \
    | sed -nE 's/.*"available":([0-9]+).*/\1/p'
}

echo "== phase 1: healthy baseline =="
[[ "$(available)" == 3 ]] || { echo "error: expected 3 available" >&2; exit 1; }
drive 20

echo "== phase 2: stop replica 1 mid-load =="
drive 5
curl -s --max-time 5 -d '{"index":1,"action":"stop"}' "$BASE/admin/replica" \
  >/dev/null
drive 20   # breakers need a few failures to open; retries keep these 200
READY_DEGRADED=$(available)
echo "  /readyz available=$READY_DEGRADED after kill"
if [[ -z "$READY_DEGRADED" || "$READY_DEGRADED" -ge 3 ]]; then
  echo "error: /readyz never flipped (available=$READY_DEGRADED)" >&2
  exit 1
fi

echo "== phase 3: restart replica 1, wait for recovery =="
curl -s --max-time 5 -d '{"index":1,"action":"start"}' "$BASE/admin/replica" \
  >/dev/null
RECOVERED=""
for _ in $(seq 1 60); do
  drive 5   # half-open probes only fire when traffic flows
  if [[ "$(available)" == 3 ]]; then
    RECOVERED=1
    break
  fi
  sleep 0.5
done
[[ -n "$RECOVERED" ]] || { echo "error: /readyz never recovered" >&2; exit 1; }
echo "  /readyz recovered to available=3"

echo "== phase 4: zero-5xx assertion =="
METRICS="$WORK_DIR/metrics.txt"
curl -s --max-time 5 "$BASE/metricsz" >"$METRICS"
FIVEXX=$(sed -nE \
  's/^dssddi_http_responses_total\{route="\/v1\/suggest",class="5xx"\} ([0-9]+).*/\1/p' \
  "$METRICS")
if [[ -z "$FIVEXX" ]]; then
  echo "error: 5xx family missing from /metricsz" >&2
  grep '^dssddi_http_responses_total' "$METRICS" >&2 || true
  exit 1
fi
if [[ "$FIVEXX" != 0 || "$FAILS" != 0 ]]; then
  echo "error: 5xx=$FIVEXX client-side failures=$FAILS" >&2
  exit 1
fi

echo "replica drill: PASS (readyz flipped to $READY_DEGRADED and recovered," \
     "0 of the drill's suggest requests failed ($BINARY_SENT binary" \
     "frames), 5xx=0)"

# Replica drill done; free its ports before the shard drill boots.
kill "$CLUSTER_PID" 2>/dev/null || true
wait "$CLUSTER_PID" 2>/dev/null || true
CLUSTER_PID=""

echo "== phase 5: boot shard cluster (2 processes, one SO_REUSEPORT port) =="
SHARD_LOG="$WORK_DIR/shards.log"
# Reuses the bundle the replica drill trained, so boot is load-only.
setsid "$SHARD_BIN" --model "$WORK_DIR/model.dssb" --port 0 --admin-port 0 \
  --shards 2 --threads 1 --duration 300 >"$SHARD_LOG" 2>&1 &
SHARD_PID=$!

DATA_PORT="" AGG_PORT=""
for _ in $(seq 1 120); do
  if grep -q '^aggregator on ' "$SHARD_LOG" 2>/dev/null; then
    DATA_PORT=$(sed -nE \
      's|^shard cluster on http://[^:]+:([0-9]+).*|\1|p' "$SHARD_LOG")
    AGG_PORT=$(sed -nE \
      's|^aggregator on http://[^:]+:([0-9]+).*|\1|p' "$SHARD_LOG")
    break
  fi
  kill -0 "$SHARD_PID" 2>/dev/null || { cat "$SHARD_LOG" >&2; exit 1; }
  sleep 1
done
[[ -n "$DATA_PORT" && -n "$AGG_PORT" ]] \
  || { echo "error: no shard banner" >&2; cat "$SHARD_LOG" >&2; exit 1; }
DATA_BASE="http://127.0.0.1:$DATA_PORT"
AGG_BASE="http://127.0.0.1:$AGG_PORT"
echo "shards up: data $DATA_BASE, aggregator $AGG_BASE (pid $SHARD_PID)"

shards_alive() {  # parse "alive":N out of the aggregator's /shardz
  curl -s --max-time 5 "$AGG_BASE/shardz" \
    | sed -nE 's/.*"alive":([0-9]+).*/\1/p'
}

[[ "$(shards_alive)" == 2 ]] \
  || { echo "error: expected 2 shards alive" >&2; exit 1; }
drive 20 "$DATA_BASE"

echo "== phase 6: stop shard 0 mid-load =="
drive 5 "$DATA_BASE"
curl -s --max-time 5 -d '{"index":0,"action":"stop"}' "$AGG_BASE/admin/shard" \
  >/dev/null
# The kernel stops routing fresh connections the moment the dead
# shard's listener closes; every request here must still answer 200
# off the surviving shard.
drive 20 "$DATA_BASE"
SHARDS_DEGRADED=$(shards_alive)
echo "  /shardz alive=$SHARDS_DEGRADED after kill"
[[ "$SHARDS_DEGRADED" == 1 ]] \
  || { echo "error: /shardz never flipped (alive=$SHARDS_DEGRADED)" >&2; exit 1; }

echo "== phase 7: restart shard 0, wait for rejoin =="
curl -s --max-time 5 -d '{"index":0,"action":"start"}' "$AGG_BASE/admin/shard" \
  >/dev/null
REJOINED=""
for _ in $(seq 1 60); do
  if [[ "$(shards_alive)" == 2 ]]; then
    REJOINED=1
    break
  fi
  sleep 0.5
done
[[ -n "$REJOINED" ]] || { echo "error: shard 0 never rejoined" >&2; exit 1; }
drive 10 "$DATA_BASE"
echo "  /shardz rejoined to alive=2"

echo "== phase 8: shard zero-5xx assertion =="
SHARD_METRICS="$WORK_DIR/shard_metrics.txt"
curl -s --max-time 5 "$AGG_BASE/metricsz" >"$SHARD_METRICS"
# Per-shard exposition must carry the shard label; no 5xx family may be
# nonzero on any shard (the restarted shard's counters restart at 0).
grep -q 'shard="' "$SHARD_METRICS" \
  || { echo "error: no shard labels in aggregated /metricsz" >&2; exit 1; }
SHARD_5XX=$(sed -nE \
  's/^dssddi_http_responses_total\{.*class="5xx".*\} ([0-9]+).*/\1/p' \
  "$SHARD_METRICS" | awk '{sum += $1} END {print sum + 0}')
if [[ "$SHARD_5XX" != 0 || "$FAILS" != 0 ]]; then
  echo "error: shard 5xx=$SHARD_5XX client-side failures=$FAILS" >&2
  exit 1
fi

echo "cluster smoke: PASS (replica drill: readyz flipped to" \
     "$READY_DEGRADED and recovered; shard drill: alive flipped to" \
     "$SHARDS_DEGRADED and rejoined; 0 failed requests, 5xx=0)"
