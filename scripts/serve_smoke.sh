#!/usr/bin/env bash
# End-to-end smoke test of the serving stack, as run in CI:
# train a tiny model, serve it on an ephemeral port, exercise
# /healthz, /v1/predict, /v1/route (to completion), and /metrics,
# asserting well-formed JSON and Prometheus output, then shut down
# gracefully. A second, fault-armed server run (AF_FAULT) then verifies
# panic recovery: a predict panic answers its request with 503, /healthz
# reports degraded then recovers, and the fault_fired_serve_predict and
# serve_predict_panics counters surface in /metrics.
#
# Usage: scripts/serve_smoke.sh [path-to-analogfold-cli]
set -euo pipefail

BIN=${1:-target/release/analogfold-cli}
WORK=$(mktemp -d)
SERVE_PID=""
cleanup() {
    [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

json_ok() { python3 -m json.tool > /dev/null; }

echo "=== train tiny model"
"$BIN" train OTA1 A --samples 6 --epochs 2 --out "$WORK/model.json"

echo "=== start server on an ephemeral port"
"$BIN" serve OTA1 A --model "$WORK/model.json" --addr 127.0.0.1:0 \
    --jobs "$WORK/jobs" > "$WORK/serve.log" 2>&1 &
SERVE_PID=$!

ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's#^serving .* at http://##p' "$WORK/serve.log" | head -n1)
    [ -n "$ADDR" ] && break
    kill -0 "$SERVE_PID" 2>/dev/null || { echo "server exited early"; cat "$WORK/serve.log"; exit 1; }
    sleep 0.2
done
[ -n "$ADDR" ] || { echo "server did not report an address"; cat "$WORK/serve.log"; exit 1; }
echo "server at $ADDR"

echo "=== /healthz"
curl -sf "http://$ADDR/healthz" | tee "$WORK/health.json" | json_ok
grep -q '"circuit":"OTA1"' "$WORK/health.json"
LEN=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["guidance_len"])' "$WORK/health.json")
echo "guidance_len=$LEN"

echo "=== /v1/predict"
python3 -c 'import sys; n=int(sys.argv[1]); print("{\"guidance\":["+",".join(["0.1"]*n)+"]}")' "$LEN" \
    > "$WORK/predict_body.json"
curl -sf -X POST --data-binary @"$WORK/predict_body.json" "http://$ADDR/v1/predict" \
    | tee "$WORK/predict.json" | json_ok
python3 - "$WORK/predict.json" <<'PY'
import json, sys
perf = json.load(open(sys.argv[1]))["performance"]
keys = {"offset_uv", "cmrr_db", "bandwidth_mhz", "dc_gain_db", "noise_uvrms"}
assert set(perf) == keys, f"performance keys {sorted(perf)}, wanted {sorted(keys)}"
assert all(isinstance(v, float) for v in perf.values()), perf
PY

echo "=== /v1/predict again: identical request must be a response-cache hit"
curl -sf -D "$WORK/predict2.headers" -X POST --data-binary @"$WORK/predict_body.json" \
    "http://$ADDR/v1/predict" > "$WORK/predict2.json"
grep -iq '^x-cache: hit' "$WORK/predict2.headers" \
    || { echo "second identical predict was not served from cache"; cat "$WORK/predict2.headers"; exit 1; }
cmp -s "$WORK/predict.json" "$WORK/predict2.json" \
    || { echo "cached predict body differs from the original"; exit 1; }

echo "=== /v1/predict with x-no-cache bypasses the cache"
curl -sf -D "$WORK/predict3.headers" -H 'x-no-cache: 1' -X POST \
    --data-binary @"$WORK/predict_body.json" "http://$ADDR/v1/predict" | json_ok
grep -iq '^x-cache:' "$WORK/predict3.headers" \
    && { echo "x-no-cache request still went through the cache"; exit 1; }
echo "cache hit + bypass OK"

echo "=== /v1/route to completion"
curl -sf -X POST -d '{"restarts":2,"lbfgs_iters":3,"n_derive":1}' "http://$ADDR/v1/route" \
    | tee "$WORK/route.json" | json_ok
JOB_ID=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["id"])' "$WORK/route.json")
STATUS=""
for _ in $(seq 1 600); do
    curl -sf "http://$ADDR/v1/jobs/$JOB_ID" > "$WORK/job.json"
    STATUS=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["status"])' "$WORK/job.json")
    [ "$STATUS" = done ] && break
    [ "$STATUS" = failed ] && { echo "job failed"; cat "$WORK/job.json"; exit 1; }
    sleep 0.5
done
[ "$STATUS" = done ] || { echo "job did not finish: $STATUS"; exit 1; }
grep -q '"wirelength_um"' "$WORK/job.json"
echo "job $JOB_ID done"

echo "=== /metrics (Prometheus text format)"
curl -sf "http://$ADDR/metrics" > "$WORK/metrics.txt"
grep -q '^# TYPE serve_requests counter' "$WORK/metrics.txt"
grep -q '^serve_requests ' "$WORK/metrics.txt"
grep -q '^cache_serve_hits ' "$WORK/metrics.txt" \
    || { echo "missing cache_serve_hits counter"; grep '^cache' "$WORK/metrics.txt" || true; exit 1; }
grep -q '^cache_serve_misses ' "$WORK/metrics.txt"
python3 - "$WORK/metrics.txt" <<'PY'
import re, sys
line_pat = re.compile(r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? \S+$')
bad = [l.rstrip() for l in open(sys.argv[1])
       if l.strip() and not l.startswith('#') and not line_pat.match(l.rstrip())]
assert not bad, f"malformed metric lines: {bad[:5]}"
print(f"metrics OK ({sum(1 for _ in open(sys.argv[1]))} lines)")
PY

echo "=== graceful shutdown"
curl -sf -X POST "http://$ADDR/v1/shutdown" > /dev/null
wait "$SERVE_PID"
SERVE_PID=""

echo "=== chaos: predict panic -> 503 -> degraded -> recovered"
AF_FAULT="serve.predict:panic:1.0:1" AF_FAULT_SEED=7 \
    "$BIN" serve OTA1 A --model "$WORK/model.json" --addr 127.0.0.1:0 \
    --jobs "$WORK/jobs-chaos" > "$WORK/serve-chaos.log" 2>&1 &
SERVE_PID=$!

ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's#^serving .* at http://##p' "$WORK/serve-chaos.log" | head -n1)
    [ -n "$ADDR" ] && break
    kill -0 "$SERVE_PID" 2>/dev/null || { echo "chaos server exited early"; cat "$WORK/serve-chaos.log"; exit 1; }
    sleep 0.2
done
[ -n "$ADDR" ] || { echo "chaos server did not report an address"; cat "$WORK/serve-chaos.log"; exit 1; }
echo "chaos server at $ADDR"

# The first predict hits the one-shot panic failpoint on its handler
# thread; the request must get an error, never a hang.
STATUS=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
    --data-binary @"$WORK/predict_body.json" "http://$ADDR/v1/predict")
[ "$STATUS" = 503 ] || { echo "expected 503 from the panicked predict, got $STATUS"; exit 1; }
echo "in-flight predict answered 503"

curl -sf "http://$ADDR/healthz" > "$WORK/health-chaos.json"
grep -q '"status":"degraded"' "$WORK/health-chaos.json" \
    || { echo "healthz did not report degraded after the panic"; cat "$WORK/health-chaos.json"; exit 1; }
echo "healthz degraded"

for _ in $(seq 1 100); do
    curl -sf "http://$ADDR/healthz" > "$WORK/health-chaos.json"
    grep -q '"status":"ok"' "$WORK/health-chaos.json" && break
    sleep 0.2
done
grep -q '"status":"ok"' "$WORK/health-chaos.json" \
    || { echo "server never recovered"; cat "$WORK/health-chaos.json"; exit 1; }
python3 -c 'import json,sys; d=json.load(open(sys.argv[1])); assert d["restarts"] >= 1, d' \
    "$WORK/health-chaos.json"
echo "healthz recovered (restarts >= 1)"

curl -sf -X POST --data-binary @"$WORK/predict_body.json" "http://$ADDR/v1/predict" | json_ok
echo "post-recovery predict OK"

curl -sf "http://$ADDR/metrics" > "$WORK/metrics-chaos.txt"
grep -q '^fault_fired_serve_predict ' "$WORK/metrics-chaos.txt" \
    || { echo "missing fault_fired_serve_predict counter"; grep '^fault' "$WORK/metrics-chaos.txt" || true; exit 1; }
grep -q '^serve_predict_panics ' "$WORK/metrics-chaos.txt" \
    || { echo "missing serve_predict_panics counter"; grep '^serve_predict' "$WORK/metrics-chaos.txt" || true; exit 1; }
echo "fault counters present in /metrics"

curl -sf -X POST "http://$ADDR/v1/shutdown" > /dev/null
wait "$SERVE_PID"
SERVE_PID=""
echo "serve smoke OK"
