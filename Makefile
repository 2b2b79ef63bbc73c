GO ?= go
FUZZTIME ?= 10s

.PHONY: all build vet kml-vet test race purego arm64-check fuzz examples serve-smoke telemetry-smoke trace-smoke online-smoke online-stress serve-stress top-smoke loadgen-smoke postmortem-smoke overhead-check bench-storage benchmark benchmark-quick bench-pair ci clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Repo-specific kernel-portability checks (see DESIGN.md).
kml-vet:
	$(GO) run ./cmd/kml-vet ./...

test:
	$(GO) test ./...

# The simulation-heavy suites (internal/readahead) run near go test's
# default 10m per-package limit under the race detector; give headroom.
race:
	$(GO) test -race -timeout 30m ./...

# Non-amd64 hosts serve with the portable kernel; mserve pins one hash of
# the served classes that this build and the asm build must both produce.
# The experiments decide with the same served Instance, so Table 2 runs
# on the portable kernel too.
purego:
	$(GO) test -tags purego ./internal/matrix ./internal/nn ./internal/mserve
	$(GO) test -tags purego -run 'TestTable2ParallelDeterminism' ./internal/bench

# Other architectures build without the amd64 kernels: every package must
# vet for arm64 (an _amd64.s kernel with no generic stub breaks only
# there), and the portable float32 kernels must compile without fused
# multiply-add, or an arm64 host would serve values amd64 never produces
# (scripts/nofma.sh). Both run offline with the installed toolchain.
arm64-check:
	GOARCH=arm64 $(GO) vet ./...
	sh scripts/nofma.sh

# Run every example end to end; each must exit 0. About a minute on two
# cores, most of it readahead-tuning and workload-classify.
EXAMPLES = quickstart workload-classify readahead-tuning online-training io-admission

examples:
	@for e in $(EXAMPLES); do \
		echo "== examples/$$e"; \
		$(GO) run ./examples/$$e || exit 1; \
	done

# Run every fuzz target briefly. Go's fuzzer allows one -fuzz pattern per
# package invocation, so targets run sequentially.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzModelRoundTrip -fuzztime=$(FUZZTIME) ./internal/nn/
	$(GO) test -run='^$$' -fuzz=FuzzInferBatchEquivalence -fuzztime=$(FUZZTIME) ./internal/nn/
	$(GO) test -run='^$$' -fuzz=FuzzSigmoidRows -fuzztime=$(FUZZTIME) ./internal/nn/
	$(GO) test -run='^$$' -fuzz=FuzzTreeLoad -fuzztime=$(FUZZTIME) ./internal/dtree/
	$(GO) test -run='^$$' -fuzz=FuzzRingPushPop -fuzztime=$(FUZZTIME) ./internal/ringbuf/
	$(GO) test -run='^$$' -fuzz=FuzzWALReplay -fuzztime=$(FUZZTIME) ./internal/kvstore/
	$(GO) test -run='^$$' -fuzz=FuzzIteratorAgainstMap -fuzztime=$(FUZZTIME) ./internal/kvstore/
	$(GO) test -run='^$$' -fuzz=FuzzTableOpen -fuzztime=$(FUZZTIME) ./internal/sstable/
	$(GO) test -run='^$$' -fuzz=FuzzFrameDecode -fuzztime=$(FUZZTIME) ./internal/mserve/
	$(GO) test -run='^$$' -fuzz=FuzzFrameStream -fuzztime=$(FUZZTIME) ./internal/mserve/
	$(GO) test -run='^$$' -fuzz=FuzzWireCanonical -fuzztime=$(FUZZTIME) ./internal/mserve/
	$(GO) test -run='^$$' -fuzz=FuzzDirectiveParse -fuzztime=$(FUZZTIME) ./internal/lint/

# End-to-end smoke of the serving subsystem: daemon + deploy + kml-loadgen
# traffic + graceful shutdown on a unix socket.
serve-smoke:
	sh scripts/serve_smoke.sh

# End-to-end smoke of the observability layer: debug HTTP listener,
# /metrics scrape, MsgMetrics wire surface, flight-recorder decisions.
telemetry-smoke:
	sh scripts/telemetry_smoke.sh

# End-to-end smoke of decision tracing: boot kml-served -sim (full
# closed-loop decisions against the deployed model), pull traces over
# MsgTraces with `kml-ctl trace`, assert complete span trees and moving drift
# gauges across a workload phase switch.
trace-smoke:
	sh scripts/trace_smoke.sh

# End-to-end smoke of the closed online-learning loop: kml-served -sim
# -olearn retrains on drift and commits through the canary; a second
# boot with -sim-poison proves a regressing retrain is auto-rolled-back.
online-smoke:
	sh scripts/online_smoke.sh

# Flake detector for the online-learning e2e tests: five back-to-back
# runs, each with two wire clients hammering the server through the
# deploy and rollback swaps. Auto-rollback must not depend on timing.
online-stress:
	$(GO) test -count=5 -run TestOnline ./internal/olearn

# Flake detector for the serving loop and the coalescer: five runs under
# the race detector of the tests that interleave connections, gathers,
# traces and the allocation gates. Coalescer races show up here first as
# flakes.
serve-stress:
	$(GO) test -race -count=5 -run 'Coalesce|ServeLoop|Trace|Propagation|AllocFree' ./internal/mserve

# End-to-end smoke of the serving console: boot kml-served -sim with a
# fast time-series interval, assert `kml-ctl status` renders throughput/latency
# from MsgTimeSeries, the raw capture is non-empty and monotonic, and
# `kml-ctl probe` joins a client-stamped trace with the server's tree.
top-smoke:
	sh scripts/top_smoke.sh

# End-to-end smoke of cross-connection batch coalescing: boot kml-served
# with a gather window, sweep open-loop load from kml-loadgen across 128
# connections, assert zero errors and a mean achieved batch > 1.
loadgen-smoke:
	sh scripts/loadgen_smoke.sh

# End-to-end smoke of crash forensics: boot kml-served with a black-box
# flight recorder, drive load, SIGKILL the daemon, and assert
# `kml-ctl postmortem` reconstructs the final window (series points, traces,
# drift trajectory) from the file alone; also covers the live-sync and
# -raw series paths.
postmortem-smoke:
	sh scripts/postmortem_smoke.sh

# The storage data plane's Go benchmarks: table point lookups, puts, a scan
# of a cold table, one pair compaction (merge, table build, reopen), and a
# full-scale environment build, cold (the fill) and warm (a copy of the
# filled template), with allocations.
# BENCHTIME=1x only checks that they still compile and run.
BENCHTIME ?= 1s
bench-storage:
	$(GO) test -run '^$$' -bench 'Get|Put|Scan|CompactPair|NewEnv' -benchmem -benchtime=$(BENCHTIME) ./internal/sstable ./internal/kvstore ./internal/sim

# The telemetry overhead self-checks in isolation: one counter add plus
# one histogram observation (internal/telemetry/overhead_test.go), one
# tracing span pair (internal/dtrace), and one full time-series capture
# tick (internal/telemetry/tsrec) must each cost under their budgets, or
# the build fails.
overhead-check:
	$(GO) test -run TestOverheadBudget -count=1 -v ./internal/telemetry/
	$(GO) test -run TestTraceOverheadBudget -count=1 -v ./internal/dtrace/
	$(GO) test -run TestTimeSeriesOverheadBudget -count=1 -v ./internal/telemetry/tsrec/
	$(GO) test -run TestBlackboxOverheadBudget -count=1 -v ./internal/blackbox/
	$(GO) test -run 'TestServed(Kernel|Batch)OverheadBudget' -count=1 -v ./internal/mserve/

# The repo benchmark (BENCHMARK.json, benchmark/README.md): every workload
# as the driver runs it, end-to-end metrics only. Any failed output check
# exits non-zero.
BENCH_WORKLOADS = tune_readrandom_ssd tune_readseq_nvme tune_updaterandom_ssd serve_row serve_batch256

benchmark:
	@for w in $(BENCH_WORKLOADS); do \
		$(GO) run ./benchmark --workload $$w --seed 1 --seconds 10 --trace 0 || exit 1; \
	done

# Two seconds of one tuning and one serving workload: cheap enough for CI,
# and a broken output check (speedup range, class match, drops, bit-exact
# repeat) still fails it.
benchmark-quick:
	@for w in tune_readseq_nvme serve_row; do \
		$(GO) run ./benchmark --workload $$w --seed 1 --seconds 2 --trace 0 || exit 1; \
	done

# Paired, alternating runs of one workload at REV and in this checkout:
# both medians, REV's IQR and the pairs won per end-to-end metric — the
# procedure a perf claim needs (scripts/paired.sh).
REV ?= HEAD
WORKLOAD ?= tune_readrandom_ssd
PAIRS ?= 5
bench-pair:
	sh scripts/paired.sh $(REV) $(WORKLOAD) $(PAIRS)

ci: build vet race purego arm64-check examples fuzz serve-smoke telemetry-smoke trace-smoke online-smoke online-stress serve-stress top-smoke loadgen-smoke postmortem-smoke overhead-check kml-vet benchmark-quick

clean:
	$(GO) clean ./...
