#!/bin/sh
# online_smoke.sh — end-to-end smoke test of the closed online-learning
# loop (internal/olearn) inside kml-served. Two daemon boots, same
# steady readseq phase, a deliberately small drift budget so the trigger
# fires against the offline training baseline:
#
#   1. benign: the retrain relearns the phase, the canary matches the
#      pre-deploy hit-rate baseline, and the new version COMMITS;
#   2. poisoned (-sim-poison 1): the retrain mislabels every example, the
#      deployed model stops recognizing the scan, deep readahead turns
#      into 1-page fills, the canary collapses, and the controller
#      auto-ROLLS BACK to the original version.
#
# Both outcomes are asserted over the real operator surfaces: `kml-ctl
# status` and `kml-ctl learn` (the MsgLearnStatus wire message). CI runs this
# after trace_smoke.sh.
set -eu

cd "$(dirname "$0")/.."
TMP="$(mktemp -d)"
trap 'kill "$PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT
PID=""

echo "== build"
go build -o "$TMP/kml-served" ./cmd/kml-served
go build -o "$TMP/kml-ctl" ./cmd/kml-ctl

# boot_sim <name> [extra flags...] — run one -olearn simulated boot and
# capture `kml-ctl status` and `kml-ctl learn` output, then shut down cleanly.
boot_sim() {
    NAME="$1"
    shift
    SOCK="$TMP/$NAME.sock"
    "$TMP/kml-served" \
        -addr "$SOCK" \
        -registry "$TMP/registry-$NAME" \
        -deploy testdata/models/readahead.kml \
        -kind nn -name readahead-nn \
        -sim 20 -sim-workload readseq \
        -norm testdata/models/readahead.norm \
        -drift-window 8 \
        -olearn -learn-budget-mz 500 \
        "$@" \
        >"$TMP/$NAME.log" 2>&1 &
    PID=$!
    # The sim (including any retrain + canary) runs before the socket opens.
    i=0
    while [ ! -S "$SOCK" ]; do
        i=$((i + 1))
        if [ "$i" -gt 2400 ]; then
            echo "daemon never created socket" >&2
            cat "$TMP/$NAME.log" >&2
            exit 1
        fi
        sleep 0.1
    done
    "$TMP/kml-ctl" status -addr "$SOCK" >"$TMP/$NAME.status"
    "$TMP/kml-ctl" learn -addr "$SOCK" >"$TMP/$NAME.learn"
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
    PID=""
    if [ "$STATUS" -ne 0 ]; then
        echo "daemon exited with status $STATUS" >&2
        cat "$TMP/$NAME.log" >&2
        exit 1
    fi
}

# learn_field <file> <name> — extract one counter off the "learn " line.
learn_field() {
    sed -n "s/^learn .*[ ]$2=\([0-9-]*\).*/\1/p" "$1"
}

echo "== benign retrain: drift fires, canary holds, version commits"
boot_sim commit
cat "$TMP/commit.learn"
RETRAINS=$(learn_field "$TMP/commit.status" retrains)
DEPLOYS=$(learn_field "$TMP/commit.status" deploys)
COMMITS=$(learn_field "$TMP/commit.status" commits)
ROLLBACKS=$(learn_field "$TMP/commit.status" rollbacks)
[ "${RETRAINS:-0}" -ge 1 ] || { echo "no retrain ran (retrains=$RETRAINS)" >&2; exit 1; }
[ "${DEPLOYS:-0}" -ge 1 ] || { echo "no version deployed (deploys=$DEPLOYS)" >&2; exit 1; }
[ "${COMMITS:-0}" -ge 1 ] || { echo "canary never committed (commits=$COMMITS)" >&2; exit 1; }
[ "${ROLLBACKS:-0}" -eq 0 ] || { echo "benign retrain rolled back" >&2; exit 1; }
# The committed version is live: the controller deployed version 2.
grep -q "^active_version      2" "$TMP/commit.status"
grep -q "committed" "$TMP/commit.learn"

echo "== poisoned retrain: canary collapses, controller rolls back"
boot_sim poison -sim-poison 1
cat "$TMP/poison.learn"
RETRAINS=$(learn_field "$TMP/poison.status" retrains)
ROLLBACKS=$(learn_field "$TMP/poison.status" rollbacks)
COMMITS=$(learn_field "$TMP/poison.status" commits)
[ "${RETRAINS:-0}" -ge 1 ] || { echo "no retrain ran (retrains=$RETRAINS)" >&2; exit 1; }
[ "${ROLLBACKS:-0}" -eq 1 ] || { echo "poisoned model not rolled back (rollbacks=$ROLLBACKS)" >&2; exit 1; }
[ "${COMMITS:-0}" -eq 0 ] || { echo "poisoned model committed (commits=$COMMITS)" >&2; exit 1; }
# Auto-rollback restored the original deployment.
grep -q "^active_version      1" "$TMP/poison.status"
grep -q "rolled-back" "$TMP/poison.learn"
# The canary saw a real regression, not a coin flip: the rolled-back
# event's canary hit rate must sit below its pre-deploy baseline.
BASE=$(sed -n 's/^retrain .*rolled-back.*baseline=\([0-9-]*\)pm.*/\1/p' "$TMP/poison.learn")
CANARY=$(sed -n 's/^retrain .*rolled-back.*canary=\([0-9-]*\)pm.*/\1/p' "$TMP/poison.learn")
if [ -z "$BASE" ] || [ -z "$CANARY" ] || [ "$CANARY" -ge "$BASE" ]; then
    echo "rollback event lacks a regressed canary (baseline=${BASE}pm canary=${CANARY}pm)" >&2
    exit 1
fi

echo "online smoke: OK (poison rollback: baseline=${BASE}pm canary=${CANARY}pm)"
