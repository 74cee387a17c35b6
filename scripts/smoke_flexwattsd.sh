#!/usr/bin/env bash
# Smoke test for the flexwattsd serving daemon: build it with the race
# detector, boot it, hit /healthz and one experiment endpoint per format,
# diff the served ASCII body against the committed golden, post one batch
# to each evaluate route and one small search to /v1/optimize, and check
# that /metrics booked that work and counted no 5xx answer. Run by
# `make smoke` locally and by the CI smoke job.
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${SMOKE_PORT:-18080}"
BASE="http://127.0.0.1:${PORT}"
BIN="$(mktemp -d)/flexwattsd"
OUT="$(mktemp -d)"

fail() {
    echo "smoke: FAILED — $*" >&2
    exit 1
}

echo "== building flexwattsd (-race)"
go build -race -o "$BIN" ./cmd/flexwattsd

"$BIN" -addr "127.0.0.1:${PORT}" &
PID=$!
trap 'kill "$PID" 2>/dev/null || true; wait "$PID" 2>/dev/null || true' EXIT

echo "== waiting for /healthz"
for _ in $(seq 1 100); do
    if curl -fsS "$BASE/healthz" -o "$OUT/health.json" 2>/dev/null; then
        break
    fi
    sleep 0.2
done
grep -q '"status": "ok"' "$OUT/health.json"
echo "   healthz ok"

echo "== listing experiments"
curl -fsS "$BASE/v1/experiments" | grep -q '"id": "fig7"'

echo "== ascii body must equal the committed golden"
curl -fsS "$BASE/v1/experiments/tab1?format=ascii" -o "$OUT/tab1.ascii"
diff -u internal/experiments/testdata/tab1.golden "$OUT/tab1.ascii"
curl -fsS "$BASE/v1/experiments/fig4j?format=ascii" -o "$OUT/fig4j.ascii"
diff -u internal/experiments/testdata/fig4j.golden "$OUT/fig4j.ascii"
echo "   golden diff clean"

echo "== json body must parse"
curl -fsS "$BASE/v1/experiments/tab1?format=json" -o "$OUT/tab1.json"
python3 -m json.tool "$OUT/tab1.json" > /dev/null
grep -q '"id": "tab1"' "$OUT/tab1.json"

echo "== csv body must carry the header record"
curl -fsS "$BASE/v1/experiments/tab1?format=csv" | grep -q '^Domain,Description$'

POINTS='{
  "points": [
    {"pdn": "IVR", "tdp": 18, "workload": "multi-thread", "ar": 0.6},
    {"pdn": "FlexWatts", "tdp": 4, "workload": "single-thread", "ar": 0.5}
  ]
}'

echo "== evaluate batch"
curl -fsS -X POST "$BASE/v1/evaluate" -d "$POINTS" -o "$OUT/eval.json"
python3 -m json.tool "$OUT/eval.json" > /dev/null
grep -q '"etee"' "$OUT/eval.json"

echo "== evaluate stream: one NDJSON result line per point"
curl -fsS -X POST "$BASE/v1/evaluate/stream" -d "$POINTS" -o "$OUT/stream.ndjson"
python3 -c '
import json, sys
lines = open(sys.argv[1]).read().splitlines()
sys.exit(not (len(lines) == 2 and all("result" in json.loads(l) for l in lines)))
' "$OUT/stream.ndjson" || fail "the stream did not answer two result lines"

echo "== optimize: exhaustive 5-candidate search"
curl -fsS -X POST "$BASE/v1/optimize" \
    -d '{"tdp":18,"loadline_scales":[1],"guardband_scales":[1],"seed":1}' -o "$OUT/optimize.json"
python3 -c '
import json, sys
r = json.load(open(sys.argv[1]))
sys.exit(not (r["evaluated"] == 5 and r["frontier"]))
' "$OUT/optimize.json" || fail "optimize did not answer 5 evaluated candidates and a frontier"

echo "== metrics: the work is booked and no answer was a 5xx"
curl -fsS "$BASE/metrics" -o "$OUT/metrics.txt"
if grep -E '^flexwattsd_requests_total\{[^}]*status="5xx"\} [1-9]' "$OUT/metrics.txt"; then
    fail "the daemon served 5xx responses"
fi
for c in flexwattsd_points_evaluated_total flexwattsd_points_streamed_total \
    flexwattsd_optimize_candidates_total; do
    grep -Eq "^$c [1-9]" "$OUT/metrics.txt" || fail "$c is not above 0"
done

echo "== graceful shutdown"
kill -TERM "$PID"
wait "$PID"
trap - EXIT
echo "smoke: all checks passed"
