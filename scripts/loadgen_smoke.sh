#!/bin/sh
# loadgen_smoke.sh — end-to-end smoke test of cross-connection batch
# coalescing under open-loop load: build the daemon and kml-loadgen,
# start kml-served with a gather window enabled, sweep two offered-load
# steps across many concurrent connections, and assert (a) zero failed
# requests, (b) the server actually fused requests from different
# connections (mean achieved batch > 1 at the higher rate), and (c) the
# kml-ctl status surface reports the coalescer's config and counters. CI runs
# this after serve-smoke; it is also the quickest way to watch the
# coalescer work locally.
set -eu

cd "$(dirname "$0")/.."
TMP="$(mktemp -d)"
SOCK="$TMP/kml.sock"
trap 'kill "$PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT

echo "== build"
go build -o "$TMP/kml-served" ./cmd/kml-served
go build -o "$TMP/kml-loadgen" ./cmd/kml-loadgen
go build -o "$TMP/kml-ctl" ./cmd/kml-ctl

echo "== start daemon (coalescing on)"
# A generous 1ms window keeps the batch>1 assertion robust on slow CI
# machines; real deployments run 50-200us.
"$TMP/kml-served" \
    -addr "$SOCK" \
    -registry "$TMP/registry" \
    -deploy testdata/models/readahead.kml \
    -kind nn -name readahead-nn \
    -max-conns 160 \
    -coalesce-window 1ms -coalesce-max 64 \
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

echo "== open-loop sweep (128 conns, 2 offered-load steps)"
"$TMP/kml-loadgen" -addr "$SOCK" \
    -conns 128 -rates 2000,8000 -duration 2s -warmup 300ms -seed 7 \
    | tee "$TMP/loadgen.out"

# Zero failed requests at every step (kml-loadgen exits nonzero on any
# error, so reaching here already means the sweep was clean; make the
# column assertion explicit anyway).
STEPS=$(grep -Ec "^ *[0-9]+ +[0-9]+ +0 " "$TMP/loadgen.out" || true)
if [ "$STEPS" -ne 2 ]; then
    echo "expected 2 zero-error sweep steps, got $STEPS" >&2
    exit 1
fi

# The higher-rate step must show cross-connection gathering: mean
# achieved batch strictly greater than 1.
MEAN=$(awk 'END { print $NF }' "$TMP/loadgen.out")
case "$MEAN" in
    ''|0|0.00|1.00) echo "no coalescing at 8000 rps (mean_batch=$MEAN)" >&2; exit 1 ;;
esac
awk -v m="$MEAN" 'BEGIN { exit !(m > 1.0) }' || {
    echo "mean achieved batch $MEAN not > 1" >&2
    exit 1
}

echo "== status"
"$TMP/kml-ctl" status -addr "$SOCK" | tee "$TMP/status.out"
grep -q "^coalesce_window_ns  1000000$" "$TMP/status.out"
grep -q "^coalesce_max        64$" "$TMP/status.out"
grep -Eq "^coalesce_batches    [1-9][0-9]*$" "$TMP/status.out"
grep -q "^errors              0$" "$TMP/status.out"
grep -q "^mserve_coalesce_batch count=" "$TMP/status.out"

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

echo "loadgen smoke: OK (mean_batch=$MEAN)"
