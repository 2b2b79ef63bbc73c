#!/bin/sh
# repeat.sh — does the benchmark agree with itself?
#
# Runs two sets of RUNS (default 3, at least 3) untraced runs of every workload on the
# checked-out commit, seeds 1..RUNS in both sets, and prints for each
# end-to-end metric and workload: both set medians, their relative
# difference in the metric's worse direction, each set's spread (distance
# between first and third quartile over the median, quartiles as Python's
# statistics.quantiles(n=4) gives them), the bound from BENCHMARK.json, and
# PASS or FAIL. A pair fails when the second median is worse than the first
# by more than the bound or, for every metric but setup_s, when a spread
# exceeds the bound. Exits non-zero if any pair fails or any run fails.
#
#   sh benchmark/repeat.sh                 # from the repo root, ~8 minutes
#   RUNS=10 SECONDS_PER_RUN=10 sh benchmark/repeat.sh
set -eu

RUNS=${RUNS:-3}
SECS=${SECONDS_PER_RUN:-$(awk -F'[:,]' '/"run_seconds"/ {gsub(/ /, "", $2); print $2}' BENCHMARK.json)}
WORKLOADS="tune_readrandom_ssd tune_readseq_nvme tune_updaterandom_ssd serve_row serve_batch256"
METRICS="setup_s throughput_per_s host_us_per_op"

mkdir -p .bench_build
bin=.bench_build/benchmark
go build -o "$bin" ./benchmark
out=.bench_build/repeat.$$
trap 'rm -f "$out" "$out.run"' EXIT
: >"$out"

for set in 1 2; do
	for w in $WORKLOADS; do
		seed=1
		while [ "$seed" -le "$RUNS" ]; do
			"$bin" -workload "$w" -seed "$seed" -seconds "$SECS" -trace 0 >"$out.run" || {
				echo "repeat.sh: $w seed $seed failed" >&2
				exit 1
			}
			# The table lines before the result read "name value unit".
			awk -v set="$set" -v w="$w" 'NF == 3 { print set, w, $1, $2 }' "$out.run" >>"$out"
			seed=$((seed + 1))
		done
	done
done

status=0
for w in $WORKLOADS; do
	for m in $METRICS; do
		bound=$(awk -v m="\"$m\"" '$0 ~ m {f = 1} f && /"bound"/ {gsub(/[ ,]/, ""); split($0, a, ":"); print a[2]; exit}' BENCHMARK.json)
		better=$(awk -v m="\"$m\"" '$0 ~ m {f = 1} f && /"better"/ {gsub(/[ ,"]/, ""); split($0, a, ":"); print a[2]; exit}' BENCHMARK.json)
		awk -v w="$w" -v m="$m" -v bound="$bound" -v better="$better" '
			function quantile(s, cnt, p,    pos, lo) {
				# statistics.quantiles(method="exclusive"): position p*(cnt+1), clamped.
				pos = p * (cnt + 1)
				lo = int(pos)
				if (lo < 1) return x[s, 1]
				if (lo >= cnt) return x[s, cnt]
				return x[s, lo] + (pos - lo) * (x[s, lo + 1] - x[s, lo])
			}
			$2 == w && $3 == m {
				# insertion sort into x[set, 1..n[set]]
				s = $1; v = $4 + 0; i = ++n[s]
				while (i > 1 && x[s, i - 1] > v) { x[s, i] = x[s, i - 1]; i-- }
				x[s, i] = v
			}
			END {
				for (s = 1; s <= 2; s++) {
					med[s] = quantile(s, n[s], 0.5)
					spread[s] = (quantile(s, n[s], 0.75) - quantile(s, n[s], 0.25)) / med[s]
				}
				worse = (med[2] - med[1]) / med[1]
				if (better == "higher") worse = -worse
				ok = worse <= bound
				if (m != "setup_s" && (spread[1] > bound || spread[2] > bound)) ok = 0
				printf "%-22s %-17s set1=%-12.6g set2=%-12.6g worse_by=%+8.4f spread1=%.4f spread2=%.4f bound=%.2f %s\n",
					w, m, med[1], med[2], worse, spread[1], spread[2], bound, ok ? "PASS" : "FAIL"
				exit !ok
			}' "$out" || status=1
	done
done
exit $status
