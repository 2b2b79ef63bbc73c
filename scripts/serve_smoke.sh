#!/bin/sh
# serve_smoke.sh — end-to-end smoke test of the serving subsystem: build
# the daemon, kml-loadgen and kml-ctl, start kml-served on a unix socket with the
# checked-in trained model, drive 1000 batched inferences, check the
# status counters, and verify a clean SIGTERM drain. CI runs this after
# the race tests; it is also the quickest way to see the serving path
# work locally.
set -eu

cd "$(dirname "$0")/.."
TMP="$(mktemp -d)"
SOCK="$TMP/kml.sock"
trap 'kill "$PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT

echo "== build"
go build -o "$TMP/kml-served" ./cmd/kml-served
go build -o "$TMP/kml-loadgen" ./cmd/kml-loadgen
go build -o "$TMP/kml-ctl" ./cmd/kml-ctl

echo "== start daemon"
"$TMP/kml-served" \
    -addr "$SOCK" \
    -registry "$TMP/registry" \
    -deploy testdata/models/readahead.kml \
    -kind nn -name readahead-nn \
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

echo "== load (1000 batched inferences: 2 conns x 10 requests x 50 rows)"
"$TMP/kml-loadgen" -addr "$SOCK" -conns 2 -batch 50 -rate 100 -duration 200ms -warmup 0 -dist fixed \
    | tee "$TMP/load.out"
# The one step row: offered, achieved (requests/s), errors, ...
ACHIEVED=$(awk '$1 ~ /^[0-9]/ { print $2 }' "$TMP/load.out")
ERRORS=$(awk '$1 ~ /^[0-9]/ { print $3 }' "$TMP/load.out")
if [ "$ERRORS" != "0" ]; then
    echo "load step reported errors=$ERRORS" >&2
    exit 1
fi
awk -v a="$ACHIEVED" 'BEGIN { exit !(a > 0) }' || {
    echo "zero achieved rate ($ACHIEVED)" >&2
    exit 1
}

echo "== status"
"$TMP/kml-ctl" status -addr "$SOCK" | tee "$TMP/status.out"
grep -q "^active_version      1$" "$TMP/status.out"
# Every served request recorded its decision before it replied.
INFERENCES=$(awk '$1 == "inferences" { print $2 }' "$TMP/status.out")
DECISIONS=$(awk '$1 == "decisions" { print $2 }' "$TMP/status.out")
if [ -z "$INFERENCES" ] || [ "$DECISIONS" != "$INFERENCES" ]; then
    echo "decisions=$DECISIONS, want inferences=$INFERENCES" >&2
    exit 1
fi
# Telemetry surface: batched-inference latency percentiles and the last
# served decisions, each stamped with the model version that made it.
grep -q "^mserve_batch_infer_ns count=" "$TMP/status.out"
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
grep -q "draining" "$TMP/served.log"

echo "serve smoke: OK (achieved=$ACHIEVED req/s)"
