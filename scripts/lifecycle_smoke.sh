#!/usr/bin/env bash
# End-to-end smoke test of the model lifecycle, as run in CI:
#
#  Phase A — train an incumbent into a fresh registry (bootstrap
#  promotion), register a second trained version as candidate, serve from
#  the registry with the background trainer on, then promote the candidate
#  over HTTP *while* a predict loop is running: every response must stay
#  200 (zero-downtime claim), predicts must be bit-stable per model
#  version and change across the swap, and a completed /v1/route job must
#  make the trainer register a fine-tuned candidate.
#
#  Phase B — restart the server with canarying on every route job,
#  register a deliberately degraded candidate (trained for a different
#  circuit, so its FoM predictions are systematically off — the classic
#  wrong-artifact deployment mistake), shadow-score it on three routed
#  jobs, and verify the canary verdict blocks its promotion (HTTP 409 and
#  a non-zero `models promote` exit) until --force.
#
# Usage: scripts/lifecycle_smoke.sh [path-to-analogfold-cli]
set -euo pipefail

BIN=${1:-target/release/analogfold-cli}
WORK=$(mktemp -d)
REG="$WORK/registry"
SERVE_PID=""
cleanup() {
    [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

json_ok() { python3 -m json.tool > /dev/null; }

wait_for_addr() { # logfile -> sets ADDR
    local log=$1
    ADDR=""
    for _ in $(seq 1 150); do
        ADDR=$(sed -n 's#^serving .* at http://##p' "$log" | head -n1)
        [ -n "$ADDR" ] && return 0
        kill -0 "$SERVE_PID" 2>/dev/null || { echo "server exited early"; cat "$log"; exit 1; }
        sleep 0.2
    done
    echo "server did not report an address"; cat "$log"; exit 1
}

route_to_done() { # seed -> waits for the job to complete
    local seed=$1 status="" job
    curl -sf -X POST -d "{\"restarts\":2,\"lbfgs_iters\":3,\"n_derive\":1,\"seed\":$seed}" \
        "http://$ADDR/v1/route" > "$WORK/route.json"
    job=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["id"])' "$WORK/route.json")
    for _ in $(seq 1 600); do
        curl -sf "http://$ADDR/v1/jobs/$job" > "$WORK/job.json"
        status=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["status"])' "$WORK/job.json")
        [ "$status" = done ] && return 0
        [ "$status" = failed ] && { echo "route job failed"; cat "$WORK/job.json"; exit 1; }
        sleep 0.5
    done
    echo "route job never finished: $status"; exit 1
}

echo "=== phase A: registry bootstrap (train incumbent, then a candidate)"
"$BIN" train OTA1 A --samples 10 --epochs 4 --out "$WORK/m1.json" --registry "$REG" \
    | tee "$WORK/train1.log"
INCUMBENT=$(sed -n 's/^model \([0-9a-f]*\) registered and promoted.*/\1/p' "$WORK/train1.log")
[ -n "$INCUMBENT" ] || { echo "first train did not bootstrap-promote"; exit 1; }

"$BIN" train OTA1 A --samples 10 --epochs 6 --out "$WORK/m2.json" --registry "$REG" \
    | tee "$WORK/train2.log"
CANDIDATE=$(sed -n 's/^model \([0-9a-f]*\) registered as candidate$/\1/p' "$WORK/train2.log")
[ -n "$CANDIDATE" ] || { echo "second train did not register a candidate"; exit 1; }

"$BIN" models list --registry "$REG" | tee "$WORK/list.txt"
grep -q "^current: $INCUMBENT" "$WORK/list.txt"

echo "=== serve from the registry with the background trainer on"
"$BIN" serve OTA1 A --registry "$REG" --jobs "$WORK/jobs" --addr 127.0.0.1:0 \
    --train --train-interval-ms 400 --train-min-samples 1 --train-epochs 2 \
    > "$WORK/serve.log" 2>&1 &
SERVE_PID=$!
wait_for_addr "$WORK/serve.log"
echo "server at $ADDR"

curl -sf "http://$ADDR/healthz" > "$WORK/health.json"
grep -q "\"model_hash\":\"$INCUMBENT\"" "$WORK/health.json" \
    || { echo "server is not resident on the registry CURRENT"; cat "$WORK/health.json"; exit 1; }
LEN=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["guidance_len"])' "$WORK/health.json")
python3 -c 'import sys; n=int(sys.argv[1]); print("{\"guidance\":["+",".join(["0.1"]*n)+"]}")' "$LEN" \
    > "$WORK/body.json"

echo "=== bit-stability on the incumbent (cache bypassed: real forward passes)"
curl -sf -H 'x-no-cache: 1' -X POST --data-binary @"$WORK/body.json" \
    "http://$ADDR/v1/predict" > "$WORK/pred_old_1.json"
curl -sf -H 'x-no-cache: 1' -X POST --data-binary @"$WORK/body.json" \
    "http://$ADDR/v1/predict" > "$WORK/pred_old_2.json"
cmp -s "$WORK/pred_old_1.json" "$WORK/pred_old_2.json" \
    || { echo "incumbent predicts are not bit-stable"; exit 1; }

echo "=== promote the candidate while a predict loop is running"
( for _ in $(seq 1 40); do
      curl -s -o /dev/null -w '%{http_code}\n' -X POST \
          --data-binary @"$WORK/body.json" "http://$ADDR/v1/predict"
  done > "$WORK/codes.txt" ) &
LOAD_PID=$!
sleep 0.3
curl -sf -X POST -d "{\"hash\":\"$CANDIDATE\"}" "http://$ADDR/v1/models/promote" \
    | tee "$WORK/promote.json" | json_ok
grep -q "\"model_hash\":\"$CANDIDATE\"" "$WORK/promote.json"
grep -q "\"previous\":\"$INCUMBENT\"" "$WORK/promote.json"
wait "$LOAD_PID"
BAD_CODES=$(sort -u "$WORK/codes.txt" | grep -v '^200$' || true)
[ -z "$BAD_CODES" ] || { echo "non-200 responses during the swap: $BAD_CODES"; exit 1; }
echo "promotion under load: $(wc -l < "$WORK/codes.txt") predicts, all 200"

curl -sf "http://$ADDR/v1/models" > "$WORK/models.json"
grep -q "\"resident\":\"$CANDIDATE\"" "$WORK/models.json" \
    || { echo "server did not hot-swap to the candidate"; cat "$WORK/models.json"; exit 1; }
grep -q "\"current\":\"$CANDIDATE\"" "$WORK/models.json"

echo "=== bit-stability on the new model, and the swap actually changed outputs"
curl -sf -H 'x-no-cache: 1' -X POST --data-binary @"$WORK/body.json" \
    "http://$ADDR/v1/predict" > "$WORK/pred_new_1.json"
curl -sf -H 'x-no-cache: 1' -X POST --data-binary @"$WORK/body.json" \
    "http://$ADDR/v1/predict" > "$WORK/pred_new_2.json"
cmp -s "$WORK/pred_new_1.json" "$WORK/pred_new_2.json" \
    || { echo "post-swap predicts are not bit-stable"; exit 1; }
cmp -s "$WORK/pred_old_1.json" "$WORK/pred_new_1.json" \
    && { echo "predicts did not change across the model swap"; exit 1; }
echo "bit-stable per version, distinct across versions"

echo "=== a routed job makes the background trainer register a candidate"
route_to_done 5
TRAINED=""
for _ in $(seq 1 150); do
    curl -sf "http://$ADDR/metrics" > "$WORK/metrics.txt"
    if grep -q '^model_trainer_registered ' "$WORK/metrics.txt"; then TRAINED=yes; break; fi
    sleep 0.4
done
[ -n "$TRAINED" ] || { echo "trainer never registered a candidate"; cat "$WORK/serve.log"; exit 1; }
grep -q '^model_swap_total ' "$WORK/metrics.txt"
grep -q '^model_trainer_ingested ' "$WORK/metrics.txt"
echo "trainer registered a fine-tuned candidate; lifecycle counters present"

curl -sf -X POST "http://$ADDR/v1/shutdown" > /dev/null
wait "$SERVE_PID"
SERVE_PID=""

echo "=== phase B: canary gate (trainer off, every route job shadow-scored)"
# A model trained for OTA3 predicts OTA3-scale figures of merit; registered
# into an OTA1 deployment it is a deterministically degraded candidate.
"$BIN" train OTA3 A --samples 10 --epochs 6 --out "$WORK/bad.json" --registry "$REG" \
    | tee "$WORK/train3.log"
BAD=$(sed -n 's/^model \([0-9a-f]*\) registered as candidate$/\1/p' "$WORK/train3.log")
[ -n "$BAD" ] || { echo "degraded train did not register a candidate"; exit 1; }

"$BIN" serve OTA1 A --registry "$REG" --jobs "$WORK/jobs-b" --addr 127.0.0.1:0 \
    --canary-fraction 1.0 > "$WORK/serve-b.log" 2>&1 &
SERVE_PID=$!
wait_for_addr "$WORK/serve-b.log"
echo "server at $ADDR"

# The registry watcher puts the candidate under canary at its first poll; a
# job that finishes before then is never scored, so wait for it first.
UNDER_CANARY=""
for _ in $(seq 1 150); do
    curl -sf "http://$ADDR/v1/models" > "$WORK/models-b.json"
    CANARY_HASH=$(python3 -c 'import json,sys; c=json.load(open(sys.argv[1])).get("canary"); print(c["candidate"] if c else "")' \
        "$WORK/models-b.json")
    if [ "$CANARY_HASH" = "$BAD" ]; then UNDER_CANARY=yes; break; fi
    sleep 0.2
done
[ -n "$UNDER_CANARY" ] || { echo "candidate $BAD never went under canary"; \
    cat "$WORK/models-b.json"; cat "$WORK/serve-b.log"; exit 1; }
echo "candidate $BAD under canary"

for seed in 6 7 8; do
    route_to_done "$seed"
done
SCORED=""
for _ in $(seq 1 50); do
    curl -sf "http://$ADDR/metrics" > "$WORK/metrics-b.txt"
    N=$(sed -n 's/^canary_evaluations \([0-9]*\).*/\1/p' "$WORK/metrics-b.txt")
    if [ -n "$N" ] && [ "$N" -ge 3 ]; then SCORED=$N; break; fi
    sleep 0.2
done
[ -n "$SCORED" ] || { echo "canary never scored 3 jobs"; cat "$WORK/serve-b.log"; exit 1; }
echo "canary scored $SCORED shadow evaluations"

echo "=== the degraded candidate must be refused (409), then forceable"
STATUS=$(curl -s -o "$WORK/refused.json" -w '%{http_code}' -X POST \
    -d "{\"hash\":\"$BAD\"}" "http://$ADDR/v1/models/promote")
[ "$STATUS" = 409 ] || { echo "expected 409 refusing the degraded candidate, got $STATUS"; \
    cat "$WORK/refused.json"; exit 1; }
echo "promotion refused over HTTP"

"$BIN" models promote "$BAD" --registry "$REG" > "$WORK/cli-promote.log" 2>&1 \
    && { echo "models promote should have refused the degraded candidate"; exit 1; }
grep -qi regress "$WORK/cli-promote.log" \
    || { echo "refusal did not cite the canary verdict"; cat "$WORK/cli-promote.log"; exit 1; }
"$BIN" models show "$BAD" --registry "$REG" | grep -q 'verdict' \
    || { echo "models show is missing the recorded verdict"; exit 1; }
echo "CLI promotion refused with the recorded verdict"

curl -sf -X POST -d "{\"hash\":\"$BAD\",\"force\":true}" \
    "http://$ADDR/v1/models/promote" | tee "$WORK/forced.json" | json_ok
grep -q "\"model_hash\":\"$BAD\"" "$WORK/forced.json"
curl -sf "http://$ADDR/metrics" > "$WORK/metrics-b.txt"
grep -q '^canary_promotions_blocked ' "$WORK/metrics-b.txt"
echo "forced promotion swapped the server; blocked counter present"

curl -sf -X POST "http://$ADDR/v1/shutdown" > /dev/null
wait "$SERVE_PID"
SERVE_PID=""

echo "=== rollback restores the previous version"
"$BIN" models rollback --registry "$REG" | tee "$WORK/rollback.log"
"$BIN" models list --registry "$REG" | grep -q "^current: $CANDIDATE" \
    || { echo "rollback did not restore the pre-force current"; \
         "$BIN" models list --registry "$REG"; exit 1; }
echo "lifecycle smoke OK"
