#!/usr/bin/env bash
# Tail-tolerance smoke test, as run in CI: a real 3-worker fleet where one
# worker is made permanently slow through an env-armed `serve.predict.delay`
# failpoint (prob 1.0: every predict sleeps).
#
# The front must:
#   * shed an expired `x-deadline-ms` with 408 *before* dialing any worker
#     (per-worker request counters prove no backend saw the request),
#   * reject a malformed deadline with 400,
#   * hedge around the slow worker (`x-hedged: 1` responses appear and the
#     observed tail stays far below the injected delay),
#   * trip the slow worker's latency breaker (`guard_breaker_opened`) and
#     keep the tail bounded while it is excluded from the ring,
#   * heal the breaker (`guard_breaker_closed`) once the worker is restarted
#     without the fault — probes are let through and close the circuit.
#
# Usage: scripts/guard_smoke.sh [path-to-analogfold-cli]
set -euo pipefail

BIN=${1:-target/release/analogfold-cli}
WORK=$(mktemp -d)
PIDS=()
cleanup() {
    for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
    rm -rf "$WORK"
}
trap cleanup EXIT

DELAY_MS=400

# Polls a background process's log for the address its banner line reports.
wait_addr() { # log-file sed-pattern pid
    local addr=""
    for _ in $(seq 1 150); do
        addr=$(sed -n "$2" "$1" | head -n1)
        [ -n "$addr" ] && { echo "$addr"; return 0; }
        kill -0 "$3" 2>/dev/null || { echo "process exited early; log:" >&2; cat "$1" >&2; return 1; }
        sleep 0.2
    done
    echo "no address in $1" >&2; cat "$1" >&2; return 1
}

metric() { # host metric-name -> value (0 when absent)
    curl -sf "http://$1/metrics" | sed -n "s/^$2 //p" | head -n1 | grep . || echo 0
}

echo "=== train tiny model"
"$BIN" train OTA1 A --samples 6 --epochs 2 --out "$WORK/model.json"

echo "=== fleet: coordinator + 2 healthy workers + 1 slow worker + front"
"$BIN" fleet-coord --addr 127.0.0.1:0 --lease-ms 600 > "$WORK/coord.log" 2>&1 &
COORD_PID=$!; PIDS+=("$COORD_PID")
COORD=$(wait_addr "$WORK/coord.log" 's#^fleet coordinator at http://##p' "$COORD_PID")
echo "coordinator at $COORD"

start_worker() { # id log-file extra-env...
    local id=$1 log=$2; shift 2
    env "$@" "$BIN" fleet-worker OTA1 A --model "$WORK/model.json" \
        --coordinator "$COORD" --addr 127.0.0.1:0 --id "$id" \
        > "$WORK/$log" 2>&1 &
    echo $!
}

W1_PID=$(start_worker gw1 w1.log); PIDS+=("$W1_PID")
W2_PID=$(start_worker gw2 w2.log); PIDS+=("$W2_PID")
# The slow worker: every predict it computes sleeps DELAY_MS first.
SLOW_PID=$(start_worker gwslow wslow.log \
    AF_FAULT="serve.predict.delay:delay:$DELAY_MS:1.0" AF_FAULT_SEED=1)
PIDS+=("$SLOW_PID")
W1=$(wait_addr "$WORK/w1.log" 's#^fleet worker .* at http://\([^ ]*\).*#\1#p' "$W1_PID")
W2=$(wait_addr "$WORK/w2.log" 's#^fleet worker .* at http://\([^ ]*\).*#\1#p' "$W2_PID")
WSLOW=$(wait_addr "$WORK/wslow.log" 's#^fleet worker .* at http://\([^ ]*\).*#\1#p' "$SLOW_PID")

"$BIN" fleet-front --coordinator "$COORD" --addr 127.0.0.1:0 --refresh-ms 100 \
    --hedge-delay-ms 50 --breaker-slow-ms 100 --breaker-open-ms 1000 \
    > "$WORK/front.log" 2>&1 &
FRONT_PID=$!; PIDS+=("$FRONT_PID")
FRONT=$(wait_addr "$WORK/front.log" 's#^fleet front at http://\([^ ]*\).*#\1#p' "$FRONT_PID")
echo "front at $FRONT (hedge 50 ms, breaker slow >100 ms, open 1000 ms)"

echo "=== ring reaches 3 workers"
for _ in $(seq 1 100); do
    curl -sf "http://$FRONT/healthz" > "$WORK/front-health.json" || true
    grep -q '"workers":3' "$WORK/front-health.json" && break
    sleep 0.2
done
grep -q '"workers":3' "$WORK/front-health.json" \
    || { echo "front never saw 3 workers"; cat "$WORK/front-health.json"; exit 1; }
grep -q '"breakers":' "$WORK/front-health.json" \
    || { echo "front /healthz lacks the breakers field"; cat "$WORK/front-health.json"; exit 1; }

LEN=$(curl -sf "http://$W1/healthz" \
    | python3 -c 'import json,sys; print(json.load(sys.stdin)["guidance_len"])')
# Distinct bodies rendezvous-hash to distinct workers, so the traffic loops
# below exercise every replica (including the slow one) as primary.
python3 - "$LEN" "$WORK" <<'PY'
import sys
n, work = int(sys.argv[1]), sys.argv[2]
for i in range(120):
    vals = ",".join(f"{0.001 * ((7 * i + j) % 97):.3f}" for j in range(n))
    open(f"{work}/body_{i}.json", "w").write('{"guidance":[%s]}' % vals)
PY

echo "=== a live deadline budget rides through the hop"
curl -sf -H "x-deadline-ms: 30000" -X POST --data-binary @"$WORK/body_0.json" \
    "http://$FRONT/v1/predict" > /dev/null \
    || { echo "budgeted predict failed"; exit 1; }

echo "=== expired deadlines are shed with 408 before any worker is dialed"
# serve_predict_compute_ms_count counts predicts that reached a forward
# pass (metrics scrapes and health checks leave it untouched). The budgeted
# predict above reached one, so the sum starts at 1 or more: an absent
# metric, which reads 0, cannot make the check below pass vacuously.
WORKED=serve_predict_compute_ms_count
BEFORE=$(( $(metric "$W1" $WORKED) + $(metric "$W2" $WORKED) + $(metric "$WSLOW" $WORKED) ))
[ "$BEFORE" -ge 1 ] \
    || { echo "$WORKED reads $BEFORE after a served predict, wanted >= 1"; exit 1; }
for value in 0 @1; do
    CODE=$(curl -s -o "$WORK/shed.json" -w '%{http_code}' -H "x-deadline-ms: $value" \
        -X POST --data-binary @"$WORK/body_1.json" "http://$FRONT/v1/predict")
    [ "$CODE" = 408 ] || { echo "deadline $value: expected 408, got $CODE"; cat "$WORK/shed.json"; exit 1; }
done
CODE=$(curl -s -o /dev/null -w '%{http_code}' -H "x-deadline-ms: @1" \
    -X POST -d '{"bench":"OTA1","variant":"A"}' "http://$FRONT/v1/route")
[ "$CODE" = 408 ] || { echo "expired route: expected 408, got $CODE"; exit 1; }
AFTER=$(( $(metric "$W1" $WORKED) + $(metric "$W2" $WORKED) + $(metric "$WSLOW" $WORKED) ))
[ "$AFTER" = "$BEFORE" ] \
    || { echo "expired requests reached a worker ($BEFORE -> $AFTER)"; exit 1; }
SHED=$(metric "$FRONT" guard_deadline_expired_front)
[ "$SHED" -ge 3 ] || { echo "guard_deadline_expired_front = $SHED, wanted >= 3"; exit 1; }
echo "3 expired requests shed at the front, workers saw none"

CODE=$(curl -s -o /dev/null -w '%{http_code}' -H "x-deadline-ms: soon-ish" \
    -X POST --data-binary @"$WORK/body_1.json" "http://$FRONT/v1/predict")
[ "$CODE" = 400 ] || { echo "malformed deadline: expected 400, got $CODE"; exit 1; }

echo "=== traffic until the slow worker's breaker trips (hedges fire meanwhile)"
HEDGED=0
OPENED=0
for i in $(seq 2 79); do
    curl -sf -D "$WORK/h.headers" -X POST --data-binary @"$WORK/body_$i.json" \
        "http://$FRONT/v1/predict" > /dev/null \
        || { echo "predict $i failed"; exit 1; }
    grep -iq '^x-hedged: 1' "$WORK/h.headers" && HEDGED=$((HEDGED + 1))
    OPENED=$(metric "$FRONT" guard_breaker_opened)
    [ "$OPENED" -ge 1 ] && break
done
[ "$OPENED" -ge 1 ] || { echo "breaker never tripped (hedged $HEDGED)"; exit 1; }
[ "$HEDGED" -ge 1 ] || { echo "no hedge fired before the breaker tripped"; exit 1; }
echo "breaker opened after $((i - 1)) requests, $HEDGED hedged"
curl -sf "http://$FRONT/healthz" | grep -Eq '"worker":"gwslow","state":"(open|half-open)"' \
    || { echo "front /healthz does not report the tripped breaker"; curl -sf "http://$FRONT/healthz"; exit 1; }

echo "=== tail stays bounded while the slow worker is tripped out"
: > "$WORK/times.txt"
for i in $(seq 80 99); do
    curl -sf -o /dev/null -w '%{time_total}\n' -X POST \
        --data-binary @"$WORK/body_$i.json" "http://$FRONT/v1/predict" >> "$WORK/times.txt"
done
python3 - "$WORK/times.txt" "$DELAY_MS" <<'PY'
import sys
times = sorted(float(t) for t in open(sys.argv[1]))
delay_s = int(sys.argv[2]) / 1000.0
# 90th percentile must stay far below the injected delay: the breaker keeps
# the slow worker out, and the rare half-open probe is hedged around. Two
# outliers (un-hedgeable probes under an empty hedge budget) are tolerated.
p90 = times[int(len(times) * 0.9) - 1]
assert p90 < delay_s * 0.875, f"p90 {p90:.3f}s not bounded vs {delay_s}s delay: {times}"
print(f"20 requests with the breaker open: p90 {p90*1000:.1f} ms, max {times[-1]*1000:.1f} ms")
PY

echo "=== restart the worker without the fault; the breaker must heal"
kill -9 "$SLOW_PID" 2>/dev/null || true
SLOW_PID=$(start_worker gwslow wslow2.log); PIDS+=("$SLOW_PID")
wait_addr "$WORK/wslow2.log" 's#^fleet worker .* at http://\([^ ]*\).*#\1#p' "$SLOW_PID" > /dev/null
CLOSED=0
for i in $(seq 100 119); do
    for _ in 1 2 3 4 5; do
        curl -s -o /dev/null -X POST --data-binary @"$WORK/body_$i.json" \
            "http://$FRONT/v1/predict" || true
        sleep 0.1
    done
    CLOSED=$(metric "$FRONT" guard_breaker_closed)
    [ "$CLOSED" -ge 1 ] && break
done
[ "$CLOSED" -ge 1 ] || { echo "breaker never healed"; curl -sf "http://$FRONT/healthz"; exit 1; }
curl -sf "http://$FRONT/healthz" | grep -q '"worker":"gwslow","state":"closed"' \
    || { echo "healed breaker not closed in /healthz"; curl -sf "http://$FRONT/healthz"; exit 1; }
echo "breaker healed (guard_breaker_closed = $CLOSED)"

echo "=== graceful teardown"
curl -s -X POST "http://$FRONT/v1/shutdown" > /dev/null || true
for addr in "$W1" "$W2" "$WSLOW"; do
    curl -s -X POST "http://$addr/v1/shutdown" > /dev/null || true
done
curl -s -X POST "http://$COORD/fleet/shutdown" > /dev/null || true
echo "guard smoke OK"
