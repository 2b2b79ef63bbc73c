#!/bin/sh
# postmortem_smoke.sh — end-to-end crash-forensics smoke test: boot
# kml-served with a black-box flight recorder and fast capture
# intervals, drive open-loop load with kml-loadgen, then kill the
# daemon with SIGKILL — the one signal nothing can hook — and assert
# that `kml-ctl postmortem` reconstructs the final window from the file
# alone: time-series points, at least one decision trace, and the
# learner's last recorded state. Also covers live mode (MsgBlackbox
# sync against the running daemon) and the -raw series dump. CI runs this after loadgen_smoke.sh.
set -eu

cd "$(dirname "$0")/.."
TMP="$(mktemp -d)"
SOCK="$TMP/kml.sock"
BOX="$TMP/kml.blackbox"
trap 'kill -9 "$PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT

echo "== build"
go build -o "$TMP/kml-served" ./cmd/kml-served
go build -o "$TMP/kml-loadgen" ./cmd/kml-loadgen
go build -o "$TMP/kml-ctl" ./cmd/kml-ctl

echo "== start daemon with black box (100ms flush, 50ms ts capture)"
"$TMP/kml-served" \
    -addr "$SOCK" \
    -registry "$TMP/registry" \
    -deploy testdata/models/readahead.kml \
    -kind nn -name readahead-nn \
    -sim 4 -sim-workload readseq,readrandom \
    -norm testdata/models/readahead.norm \
    -ts-interval 50ms \
    -blackbox "$BOX" -blackbox-size 1048576 -blackbox-interval 100ms \
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
grep -q "^blackbox $BOX" "$TMP/served.log"

echo "== offered load spanning several flush intervals"
"$TMP/kml-loadgen" -addr "$SOCK" -conns 8 -rate 2000 -duration 1s \
    -warmup 200ms >"$TMP/loadgen.out"

echo "== live mode: sync + read the running daemon's box"
"$TMP/kml-ctl" postmortem -addr "$SOCK" >"$TMP/live.out"
grep -q "^black box $BOX" "$TMP/live.out"
# The sync made the file current, so the scan finds intact records. The
# torn count is not asserted: the daemon's flusher keeps writing while
# the file is read, so a live read may catch its last record half done.
grep -q "^records   [1-9][0-9]* intact" "$TMP/live.out"

echo "== status line reports the box"
"$TMP/kml-ctl" status -addr "$SOCK" | grep "^blackbox "

echo "== SIGKILL: no shutdown hook runs"
kill -9 "$PID"
i=0
while kill -0 "$PID" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "daemon survived SIGKILL?" >&2
        exit 1
    fi
    sleep 0.1
done
wait "$PID" 2>/dev/null || true

echo "== postmortem reconstructs the flight from the file alone"
"$TMP/kml-ctl" postmortem "$BOX" >"$TMP/report.out"
cat "$TMP/report.out"
# The scan found intact records of every kind the sampler persists.
grep -q "^records  " "$TMP/report.out"
if grep -q " 0 metrics" "$TMP/report.out"; then
    echo "no metrics records recovered" >&2
    exit 1
fi
if grep -q " 0 timeseries" "$TMP/report.out"; then
    echo "no time-series records recovered" >&2
    exit 1
fi
# The counters of the newest metrics record: the load above served rows.
grep -Eq "^rows +[1-9]" "$TMP/report.out"
# The merged series has points and a real throughput line.
grep -q "^series    [1-9][0-9]* points\|^throughput" "$TMP/report.out"
if grep -q "no time-series points recovered" "$TMP/report.out"; then
    echo "postmortem recovered no time-series points" >&2
    exit 1
fi
# At least one decision trace survived, rendered as a span tree.
grep -q "^trace " "$TMP/report.out"
grep -q "└─" "$TMP/report.out"
if grep -q "^traces    none recovered" "$TMP/report.out"; then
    echo "postmortem recovered no traces" >&2
    exit 1
fi
# The learner's last recorded state made it to disk (-sim registers the
# readahead drift monitor; learn records need -olearn, so only require
# the drift trajectory here).
grep -q "^drift readahead_drift" "$TMP/report.out"

echo "== -last narrows the window"
"$TMP/kml-ctl" postmortem -last 2s "$BOX" >"$TMP/last.out"
grep -q "^records  " "$TMP/last.out"

echo "== -raw prints the box's merged series"
"$TMP/kml-ctl" postmortem -raw "$BOX" >"$TMP/fromraw.out"
grep -q "^counters mserve_rows " "$TMP/fromraw.out"
NPOINTS=$(sed -n 's/^\([0-9][0-9]*\) points$/\1/p' "$TMP/fromraw.out")
case "$NPOINTS" in '' | 0) echo "box replay has no points" >&2; exit 1 ;; esac

echo "postmortem smoke: OK (points=$NPOINTS)"
