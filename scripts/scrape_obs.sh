#!/usr/bin/env bash
# Scrapes the observability surfaces of a live server and saves them as
# artifacts: OpenMetrics exposition (exemplars + # EOF), the SLO burn
# view, the slowest/errored trace rings, and error-severity wide events
# from the flight recorder.
#
# Usage: scripts/scrape_obs.sh [server-binary] [out-dir]
#   server-binary  default: build/examples/http_server_cli
#   out-dir        default: obs-artifacts
#
# The server is started on an ephemeral port with a self-trained demo
# bundle, warmed with a handful of /v1/suggest requests (so latency
# histograms carry exemplars), scraped, sanity-checked, and shut down.
set -euo pipefail

cd "$(dirname "$0")/.."
SERVER="${1:-build/examples/http_server_cli}"
OUT_DIR="${2:-obs-artifacts}"

if [[ ! -x "$SERVER" ]]; then
  echo "error: $SERVER not found or not executable (build examples first)" >&2
  exit 1
fi
mkdir -p "$OUT_DIR"

SERVER_LOG="$OUT_DIR/server.log"
"$SERVER" --port 0 --model "$OUT_DIR/scrape_model.dssb" >"$SERVER_LOG" 2>&1 &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true; wait "$SERVER_PID" 2>/dev/null || true' EXIT

# The CLI prints "serving on http://HOST:PORT ... feature width W" once
# the listener is up; poll for it instead of guessing a sleep. First
# launch trains a demo bundle (~a minute), hence the generous budget.
PORT="" WIDTH=""
for _ in $(seq 1 1800); do
  if LINE=$(grep -m1 'serving on http://' "$SERVER_LOG" 2>/dev/null); then
    PORT=$(sed -nE 's|.*serving on http://[^:]+:([0-9]+).*|\1|p' <<<"$LINE")
    WIDTH=$(sed -nE 's|.*feature width ([0-9]+).*|\1|p' <<<"$LINE")
    [[ -n "$PORT" && -n "$WIDTH" ]] && break
  fi
  kill -0 "$SERVER_PID" 2>/dev/null || { cat "$SERVER_LOG" >&2; exit 1; }
  sleep 0.1
done
if [[ -z "$PORT" || -z "$WIDTH" ]]; then
  echo "error: server never reported its port" >&2
  cat "$SERVER_LOG" >&2
  exit 1
fi
BASE="http://127.0.0.1:$PORT"
echo "server up on $BASE (feature width $WIDTH)"

# Warm traffic: real completions so the histograms, exemplars, flight
# recorder and SLO windows all have something to show.
FEATURES=$(python3 -c "print(','.join(['0.0']*$WIDTH))")
for patient in 1 2 3 4 5 6 7 8; do
  curl -sS -o /dev/null -X POST "$BASE/v1/suggest" \
    -H 'Content-Type: application/json' \
    -d "{\"patient_id\":$patient,\"features\":[$FEATURES],\"k\":3}"
done
# One malformed request so /logz has a warning-severity event too.
curl -sS -o /dev/null -X POST "$BASE/v1/suggest" -d 'not json' || true

curl -sSf "$BASE/metricsz?format=openmetrics" >"$OUT_DIR/metricsz.openmetrics"
curl -sSf "$BASE/metricsz" >"$OUT_DIR/metricsz.prom"
curl -sSf "$BASE/sloz" >"$OUT_DIR/sloz.json"
curl -sSf "$BASE/logz?severity=error" >"$OUT_DIR/logz-errors.ndjson"
curl -sSf "$BASE/logz" >"$OUT_DIR/logz.ndjson"
curl -sSf "$BASE/statsz" >"$OUT_DIR/statsz.json"
curl -sSf "$BASE/tracez" >"$OUT_DIR/tracez.json"

# Sanity: the artifacts must actually be the formats they claim.
grep -q '^# EOF$' "$OUT_DIR/metricsz.openmetrics" \
  || { echo "FAIL: OpenMetrics payload missing '# EOF' terminator" >&2; exit 1; }
grep -q 'dssddi_build_info{' "$OUT_DIR/metricsz.prom" \
  || { echo "FAIL: build info gauge missing from /metricsz" >&2; exit 1; }
grep -q '"degraded":' "$OUT_DIR/sloz.json" \
  || { echo "FAIL: /sloz missing degraded field" >&2; exit 1; }
grep -q ' # {trace_id=' "$OUT_DIR/metricsz.openmetrics" \
  || { echo "FAIL: no exemplars in the OpenMetrics exposition" >&2; exit 1; }
# The first warm request is always sampled (1-in-64 samples request 0),
# so the slowest ring holds at least one record with its stage times.
python3 - "$OUT_DIR/tracez.json" <<'EOF' \
  || { echo "FAIL: /tracez has no slowest record with stages_ms" >&2; exit 1; }
import json, sys
slowest = json.load(open(sys.argv[1]))["slowest"]
sys.exit(0 if slowest and all(r["stages_ms"] for r in slowest) else 1)
EOF

echo "scraped artifacts into $OUT_DIR:"
ls -l "$OUT_DIR"
