#!/bin/sh
# paired.sh — is a change faster than REV, by the merge gate's procedure?
#
#   sh scripts/paired.sh REV WORKLOAD [PAIRS [SEED]]
#   sh scripts/paired.sh HEAD~1 tune_readrandom_ssd 10
#
# Builds ./benchmark twice: at REV, in a temporary git worktree, and from
# this checkout as it stands (HEAD plus any uncommitted edit). Then runs
# PAIRS (default 5) pairs back to back, REV first in odd pairs and the
# checkout first in even ones, so a slow spell or a warm-up on the host
# hits both sides alike. Each side runs in its own tree, with its own
# testdata. For each end-to-end metric in BENCHMARK.json it prints both
# medians, the change in the metric's better direction, the interquartile
# range of REV's runs, and in how many pairs the checkout was better. A
# gain counts when it is better in at least nine pairs of ten and its
# median moves by more than REV's IQR. Every run is untraced, seed SEED
# (default 1) and BENCHMARK.json's run_seconds long, as the merge gate
# runs it. Each side prints as q1/median/q3. The worktree and the
# binaries live in a temporary directory that is removed on exit.
set -eu

[ $# -ge 2 ] || {
	echo "usage: sh scripts/paired.sh REV WORKLOAD [PAIRS [SEED]]" >&2
	exit 2
}
REV=$1
WORKLOAD=$2
PAIRS=${3:-5}
SEED=${4:-1}

cd "$(dirname "$0")/.."
SECS=$(awk -F'[:,]' '/"run_seconds"/ {gsub(/ /, "", $2); print $2}' BENCHMARK.json)
# name:better for every end-to-end metric.
METRICS=$(awk '
	/"end_to_end"/ { f = 1 }
	/"per_layer"/ { f = 0 }
	f && /"name"/ { gsub(/[ ,"]/, ""); split($0, a, ":"); name = a[2] }
	f && /"better"/ { gsub(/[ ,"]/, ""); split($0, a, ":"); print name ":" a[2] }
' BENCHMARK.json)

TMP=$(mktemp -d)
trap 'git worktree remove --force "$TMP/rev" 2>/dev/null || true; rm -rf "$TMP"' EXIT
git worktree add --quiet --detach "$TMP/rev" "$REV"
(cd "$TMP/rev" && go build -o "$TMP/rev.bin" ./benchmark)
go build -o "$TMP/new.bin" ./benchmark

# run SIDE PAIR appends "SIDE PAIR name value" for each table line of one
# run of SIDE, from SIDE's tree.
run() {
	dir=.
	[ "$1" = rev ] && dir="$TMP/rev"
	(cd "$dir" && "$TMP/$1.bin" -workload "$WORKLOAD" -seed "$SEED" -seconds "$SECS" -trace 0) >"$TMP/run.out" || {
		echo "paired.sh: $1 run of pair $2 failed" >&2
		exit 1
	}
	awk -v side="$1" -v pair="$2" 'NF == 3 { print side, pair, $1, $2 }' "$TMP/run.out" >>"$TMP/all"
}

: >"$TMP/all"
pair=1
while [ "$pair" -le "$PAIRS" ]; do
	if [ $((pair % 2)) -eq 1 ]; then
		run rev "$pair"
		run new "$pair"
	else
		run new "$pair"
		run rev "$pair"
	fi
	echo "pair $pair/$PAIRS done" >&2
	pair=$((pair + 1))
done

echo "$WORKLOAD: $REV vs this checkout, $PAIRS pairs of ${SECS}s runs, seed $SEED"
for mb in $METRICS; do
	awk -v m="${mb%%:*}" -v better="${mb#*:}" '
		function quantile(s, cnt, p,    pos, lo) {
			# statistics.quantiles(method="exclusive"), as benchmark/repeat.sh.
			pos = p * (cnt + 1)
			lo = int(pos)
			if (lo < 1) return x[s, 1]
			if (lo >= cnt) return x[s, cnt]
			return x[s, lo] + (pos - lo) * (x[s, lo + 1] - x[s, lo])
		}
		$3 == m {
			s = $1; v = $4 + 0; val[s, $2] = v; i = ++n[s]
			while (i > 1 && x[s, i - 1] > v) { x[s, i] = x[s, i - 1]; i-- }
			x[s, i] = v
		}
		END {
			if (n["rev"] == 0) exit
			wins = 0
			for (p = 1; p <= n["rev"]; p++) {
				d = val["new", p] - val["rev", p]
				if ((better == "lower" && d < 0) || (better == "higher" && d > 0)) wins++
			}
			mr = quantile("rev", n["rev"], 0.5); mn = quantile("new", n["new"], 0.5)
			iqr = quantile("rev", n["rev"], 0.75) - quantile("rev", n["rev"], 0.25)
			gain = (mn - mr) / mr
			if (better == "lower") gain = -gain
			moved = (mn - mr > iqr || mr - mn > iqr) ? "beyond" : "within"
			printf "%-17s rev=%.6g/%.6g/%.6g new=%.6g/%.6g/%.6g better_by=%+.4f rev_iqr=%.4g (%s it) better_in=%d/%d\n",
				m, quantile("rev", n["rev"], 0.25), mr, quantile("rev", n["rev"], 0.75),
				quantile("new", n["new"], 0.25), mn, quantile("new", n["new"], 0.75),
				gain, iqr, moved, wins, n["rev"]
		}' "$TMP/all"
done
