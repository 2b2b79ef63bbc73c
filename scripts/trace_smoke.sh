#!/bin/sh
# trace_smoke.sh — end-to-end smoke test of decision tracing: boot
# kml-served with -sim (which runs full closed-loop tuner decisions
# against the deployed model across a workload phase switch, recording a
# trace per decision into the server's arena), drive wire inference for
# server-side request traces, pull everything back over MsgTraces with
# `kml-ctl trace`, and assert at least one COMPLETE span tree plus moving
# drift gauges. CI runs this after telemetry_smoke.sh.
set -eu

cd "$(dirname "$0")/.."
TMP="$(mktemp -d)"
SOCK="$TMP/kml.sock"
trap 'kill "$PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT

echo "== build"
go build -o "$TMP/kml-served" ./cmd/kml-served
go build -o "$TMP/kml-ctl" ./cmd/kml-ctl
go build -o "$TMP/kml-loadgen" ./cmd/kml-loadgen

echo "== start daemon with -sim (phase-switching closed loop)"
"$TMP/kml-served" \
    -addr "$SOCK" \
    -registry "$TMP/registry" \
    -deploy testdata/models/readahead.kml \
    -kind nn -name readahead-nn \
    -sim 6 -sim-workload readseq,readrandom \
    -norm testdata/models/readahead.norm \
    -drift-window 3 \
    >"$TMP/served.log" 2>&1 &
PID=$!

# The sim runs before the socket opens; the fill alone takes a while.
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
grep -q "^sim: 6 decision windows" "$TMP/served.log"

echo "== wire traffic for server-side request traces"
"$TMP/kml-loadgen" -addr "$SOCK" -conns 1 -batch 1 -rate 250 -duration 200ms -warmup 0 -dist fixed >/dev/null
"$TMP/kml-loadgen" -addr "$SOCK" -conns 1 -batch 10 -rate 50 -duration 200ms -warmup 0 -dist fixed >/dev/null

echo "== pull traces"
"$TMP/kml-ctl" trace -addr "$SOCK" >"$TMP/traces.out"
head -20 "$TMP/traces.out"

# At least one complete TUNER span tree: the five decision-path child
# stages all present, plus outcome attribution from the page cache.
for stage in feature normalize infer apply outcome; do
    grep -q "─ $stage" "$TMP/traces.out" || {
        echo "no $stage span in any trace" >&2
        exit 1
    }
done
grep -q "hit rate [0-9]*pm" "$TMP/traces.out"
# Server-side request traces came through the same surface.
grep -q "─ parse" "$TMP/traces.out"
grep -q "─ encode" "$TMP/traces.out"
# The trailer counts at least one complete trace.
COMPLETE=$(sed -n 's/^[0-9]* traces shown, \([0-9]*\) complete.*/\1/p' "$TMP/traces.out")
case "$COMPLETE" in ''|0) echo "no complete trace ($COMPLETE)" >&2; exit 1 ;; esac

echo "== filters"
"$TMP/kml-ctl" trace -addr "$SOCK" -slow 1h | grep -q "^0 traces shown"
# Every trace of this boot started within the last day: at least one shows.
"$TMP/kml-ctl" trace -addr "$SOCK" -since 24h | grep -q "^[1-9][0-9]* traces shown"

echo "== drift gauges moved across the phase switch"
"$TMP/kml-ctl" status -addr "$SOCK" >"$TMP/status.out"
grep "^drift " "$TMP/status.out"
# The -sim tuner completed drift windows spanning readseq -> readrandom.
DRIFT=$(sed -n 's/^drift readahead_drift.*windows=\([0-9]*\).*/\1/p' "$TMP/status.out")
case "$DRIFT" in ''|0) echo "readahead drift monitor saw no windows" >&2; exit 1 ;; esac
# The serving-path monitor observed the wire traffic.
grep -q "^drift mserve_drift" "$TMP/status.out"

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

echo "trace smoke: OK (complete_traces=$COMPLETE drift_windows=$DRIFT)"
