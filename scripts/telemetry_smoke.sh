#!/bin/sh
# telemetry_smoke.sh — end-to-end smoke test of the observability layer:
# boot kml-served with the HTTP debug listener, drive mixed traffic
# (single and batched inference), scrape /metrics and the MsgMetrics
# wire surface, and assert the request-latency histograms actually
# observed the traffic. CI runs this after serve_smoke.sh.
set -eu

cd "$(dirname "$0")/.."
TMP="$(mktemp -d)"
SOCK="$TMP/kml.sock"
trap 'kill "$PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT

echo "== build"
go build -o "$TMP/kml-served" ./cmd/kml-served
go build -o "$TMP/kml-loadgen" ./cmd/kml-loadgen
go build -o "$TMP/kml-ctl" ./cmd/kml-ctl

echo "== start daemon with debug listener"
"$TMP/kml-served" \
    -addr "$SOCK" \
    -registry "$TMP/registry" \
    -deploy testdata/models/readahead.kml \
    -kind nn -name readahead-nn \
    -debug-addr 127.0.0.1:0 \
    >"$TMP/served.log" 2>&1 &
PID=$!

i=0
while [ ! -S "$SOCK" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "daemon never created socket" >&2
        cat "$TMP/served.log" >&2
        exit 1
    fi
    sleep 0.1
done

# The daemon prints the resolved debug address (it was bound with :0).
i=0
while ! grep -q "debug listening on" "$TMP/served.log"; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "daemon never announced debug listener" >&2
        cat "$TMP/served.log" >&2
        exit 1
    fi
    sleep 0.1
done
DEBUG_URL=$(sed -n 's/^debug listening on //p' "$TMP/served.log")
echo "debug url: $DEBUG_URL"

echo "== traffic (singles and batches)"
"$TMP/kml-loadgen" -addr "$SOCK" -conns 1 -batch 1 -rate 1000 -duration 200ms -warmup 0 -dist fixed >/dev/null
"$TMP/kml-loadgen" -addr "$SOCK" -conns 2 -batch 50 -rate 100 -duration 200ms -warmup 0 -dist fixed >/dev/null

echo "== /metrics"
curl -fsS "$DEBUG_URL/metrics" >"$TMP/metrics.out"
head -5 "$TMP/metrics.out"
# Both inference histograms observed traffic.
INFER=$(sed -n 's/^mserve_infer_ns_count //p' "$TMP/metrics.out")
BATCH=$(sed -n 's/^mserve_batch_infer_ns_count //p' "$TMP/metrics.out")
case "$INFER" in ''|0) echo "mserve_infer_ns never observed ($INFER)" >&2; exit 1 ;; esac
case "$BATCH" in ''|0) echo "mserve_batch_infer_ns never observed ($BATCH)" >&2; exit 1 ;; esac
# Percentiles and cumulative buckets render.
grep -q "^mserve_infer_ns_p99 " "$TMP/metrics.out"
grep -q "^mserve_infer_ns_bucket_le_" "$TMP/metrics.out"
# The decision and server gauges are exposed.
grep -q "^mserve_decisions " "$TMP/metrics.out"
grep -q "^mserve_active_version 1$" "$TMP/metrics.out"

echo "== expvar and pprof"
curl -fsS "$DEBUG_URL/debug/vars" | grep -q '"cmdline"'
curl -fsS "$DEBUG_URL/debug/pprof/" >/dev/null

echo "== MsgMetrics via kml-ctl status"
"$TMP/kml-ctl" status -addr "$SOCK" >"$TMP/status.out"
grep -q "^mserve_infer_ns count=" "$TMP/status.out"
grep -Eq "^decision t=[0-9]+ class=-?[0-9]+ rows=[0-9]+ v1$" "$TMP/status.out"

echo "== graceful shutdown"
kill -TERM "$PID"
i=0
while kill -0 "$PID" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -gt 150 ]; then
        echo "daemon did not exit after SIGTERM" >&2
        exit 1
    fi
    sleep 0.1
done
STATUS=0
wait "$PID" || STATUS=$?
if [ "$STATUS" -ne 0 ]; then
    echo "daemon exited with status $STATUS" >&2
    cat "$TMP/served.log" >&2
    exit 1
fi

echo "telemetry smoke: OK (infer_count=$INFER batch_count=$BATCH)"
