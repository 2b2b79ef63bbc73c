#!/bin/sh
# top_smoke.sh — end-to-end smoke test of the serving console and the
# time-series capture behind it: boot kml-served with -sim (so the
# readahead_* series have data too) and a fast -ts-interval, drive wire
# inference, then assert that (1) `kml-ctl status` renders sane
# throughput, latency, and learn lines from MsgTimeSeries, (2) `kml-ctl
# series` shows a non-empty, strictly monotonic point capture, and (3)
# `kml-ctl probe` joins a client-stamped trace with the server's span tree over the
# wire. CI runs this after trace_smoke.sh.
set -eu

cd "$(dirname "$0")/.."
TMP="$(mktemp -d)"
SOCK="$TMP/kml.sock"
trap 'kill "$PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT

echo "== build"
go build -o "$TMP/kml-served" ./cmd/kml-served
go build -o "$TMP/kml-ctl" ./cmd/kml-ctl
go build -o "$TMP/kml-loadgen" ./cmd/kml-loadgen

echo "== start daemon with -sim and 50ms time-series capture"
"$TMP/kml-served" \
    -addr "$SOCK" \
    -registry "$TMP/registry" \
    -deploy testdata/models/readahead.kml \
    -kind nn -name readahead-nn \
    -sim 4 -sim-workload readseq,readrandom \
    -norm testdata/models/readahead.norm \
    -ts-interval 50ms \
    -debug-addr 127.0.0.1:0 \
    >"$TMP/served.log" 2>&1 &
PID=$!

i=0
while [ ! -S "$SOCK" ]; do
    i=$((i + 1))
    if [ "$i" -gt 1200 ]; then
        echo "daemon never created socket" >&2
        cat "$TMP/served.log" >&2
        exit 1
    fi
    sleep 0.1
done

echo "== wire traffic, spanning several capture intervals"
"$TMP/kml-loadgen" -addr "$SOCK" -conns 1 -batch 1 -rate 1000 -duration 200ms -warmup 0 -dist fixed >/dev/null
sleep 0.3
"$TMP/kml-loadgen" -addr "$SOCK" -conns 1 -batch 4 -rate 250 -duration 200ms -warmup 0 -dist fixed >/dev/null
sleep 0.3

echo "== kml-ctl status renders the console frame"
"$TMP/kml-ctl" status -addr "$SOCK" >"$TMP/top.out"
cat "$TMP/top.out"
grep -q "^status $SOCK " "$TMP/top.out"
grep -q "rows/s" "$TMP/top.out"
# A live p99 from the captured mserve_infer_ns series.
grep -q "^infer *p50" "$TMP/top.out"
grep -q "p99 *[0-9]" "$TMP/top.out"
grep -q "^learn *state=" "$TMP/top.out"
# With traffic spanning intervals, the throughput line must not be the
# no-data placeholder.
if grep -q "no time series yet" "$TMP/top.out"; then
    echo "console rendered without time-series data" >&2
    exit 1
fi

echo "== raw capture: non-empty and strictly monotonic"
"$TMP/kml-ctl" series -addr "$SOCK" >"$TMP/raw.out"
head -5 "$TMP/raw.out"
NPOINTS=$(sed -n 's/^\([0-9][0-9]*\) points$/\1/p' "$TMP/raw.out")
case "$NPOINTS" in '' | 0 | 1) echo "raw capture has $NPOINTS points" >&2; exit 1 ;; esac
awk '
    $1 == "point" {
        if (prev != "" && $2 <= prev) { print "timestamps not monotonic: " $2 " after " prev; exit 1 }
        prev = $2
    }
' "$TMP/raw.out"
# Some interval actually saw rows: column 1 after the timestamp is the
# first configured counter (mserve_rows).
ROWS=$(awk '$1 == "point" { sum += $3 } END { print sum + 0 }' "$TMP/raw.out")
case "$ROWS" in '' | 0) echo "no rows captured in any interval" >&2; exit 1 ;; esac
grep -q "^counters mserve_rows " "$TMP/raw.out"

echo "== cross-process trace join (kml-ctl probe)"
"$TMP/kml-ctl" probe -addr "$SOCK" 3 >"$TMP/probe.out"
cat "$TMP/probe.out"
grep -q "3 probes sent, 3 joined across the wire" "$TMP/probe.out"
grep -q "joined client↔server, identical TraceID" "$TMP/probe.out"
# The joined tree shows both sides: client wire span and the server's
# queue span nested inside it.
grep -q "─ wire" "$TMP/probe.out"
grep -q "─ queue" "$TMP/probe.out"

echo "== debug HTTP pages (/traces, /learn, /timeseries)"
DEBUG_URL=$(sed -n 's#^debug listening on \(http://.*\)#\1#p' "$TMP/served.log")
if [ -n "$DEBUG_URL" ] && command -v curl >/dev/null 2>&1; then
    curl -fsS "$DEBUG_URL/traces" | grep -q "traces retained"
    curl -fsS "$DEBUG_URL/learn" | grep -q "^learn state="
    # /timeseries mirrors kml-ctl series: header lines plus captured points.
    curl -fsS "$DEBUG_URL/timeseries" >"$TMP/tshttp.out"
    grep -q "^interval_ns " "$TMP/tshttp.out"
    grep -q "^counters mserve_rows " "$TMP/tshttp.out"
    grep -q "^point " "$TMP/tshttp.out"
else
    echo "   (curl or debug url unavailable; skipping HTTP checks)"
fi

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

echo "top smoke: OK (points=$NPOINTS rows=$ROWS)"
