package mserve

import (
	"os"
	"testing"
	"time"

	"repro/internal/nn"
)

// servedKernelBudget bounds what an Instance may cost over the compiled
// kernel it wraps, as a ratio of two loops timed back to back in this
// process — so the gate means the same on any machine and needs no
// recorded baseline.
const servedKernelBudget = 1.5

// servedBatchBudget bounds what Server.classify, the served prediction
// plus the drift monitor's accounting, may cost over the prediction
// alone, as a ratio timed in this process. On a 2-core x86-64 host it
// read 1.09–1.15 over 20 runs, idle or beside a busy test suite, and
// 1.23–1.30 with the per-row ObserveBatch loop that the column-wise one
// replaced.
const servedBatchBudget = 1.19

// TestServedKernelOverheadBudget fails if Instance.PredictBatch at 256
// rows drifts away from nn.Float32Network.InferBatch at 256 rows: the
// served path is meant to be that kernel plus two length checks, and a
// regression here (a conversion, a copy, the float64 graph creeping back)
// is the whole payload-proportional cost of the batch endpoint.
func TestServedKernelOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing assertion skipped in -short mode")
	}
	art, net := committedArtifact(t)
	inst := instantiate(t, art)
	kernel, err := nn.CompileFloat32(net)
	if err != nil {
		t.Fatal(err)
	}
	const rows, blocks, rounds = 256, 64, 15
	d := inst.InDim()
	pool := uniformPool(60, rows*blocks*d)
	classes := make([]int, rows)
	pass := func(f func(block []float64)) time.Duration {
		start := time.Now()
		for b := 0; b < blocks; b++ {
			f(pool[b*rows*d : (b+1)*rows*d])
		}
		return time.Since(start)
	}
	// The two loops alternate round by round, so a slow spell early in the
	// test (the previous test's teardown, a GC cycle) slows both sides
	// instead of only the one timed first.
	served, bare := time.Duration(1<<63-1), time.Duration(1<<63-1)
	for r := 0; r < rounds; r++ {
		served = min(served, pass(func(block []float64) { inst.PredictBatch(block, rows, classes) }))
		bare = min(bare, pass(func(block []float64) { kernel.InferBatch(block, rows, classes) }))
	}
	perRow := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / (rows * blocks) }
	ratio := float64(served) / float64(bare)
	t.Logf("Instance.PredictBatch %.1f ns/row, Float32Network.InferBatch %.1f ns/row, ratio %.2f (budget %.1f)",
		perRow(served), perRow(bare), ratio, servedKernelBudget)
	if ratio > servedKernelBudget {
		t.Fatalf("serving costs %.2f× the compiled kernel, budget %.1f×", ratio, servedKernelBudget)
	}
}

// TestServedBatchOverheadBudget fails if the drift accounting that every
// served batch pays drifts up against the prediction itself: it times
// Server.classify on 256-row blocks against Instance.PredictBatch on the
// same blocks. The two alternate block by block, and each block keeps its
// fastest time of all rounds on each side, so a preemption or a busy
// spell on the host, which lands on some blocks of some rounds, drops out
// of both sums. The server's monitor is the one a deploy installs,
// self-baselined over DefaultDriftWindow rows, so a 256-row block rolls
// four windows.
func TestServedBatchOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing assertion skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("the race detector instruments the Go loops, not the kernels; timings would measure the detector")
	}
	data, err := os.ReadFile(committedModel)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := startServer(t, Config{})
	if _, err := s.Deploy(KindNN, "readahead", data); err != nil {
		t.Fatal(err)
	}
	art, _ := committedArtifact(t)
	inst := instantiate(t, art)
	const rows, blocks, rounds = 256, 64, 41
	d := inst.InDim()
	pool := uniformPool(61, rows*blocks*d)
	classes := make([]int, rows)
	timed := func(f func()) time.Duration {
		start := time.Now()
		f()
		return time.Since(start)
	}
	served, predict := make([]time.Duration, blocks), make([]time.Duration, blocks)
	for r := 0; r < rounds; r++ {
		for b := range served {
			block := pool[b*rows*d : (b+1)*rows*d]
			sb := timed(func() { s.classify(inst, block, rows, d, classes) })
			pb := timed(func() { inst.PredictBatch(block, rows, classes) })
			if r == 0 || sb < served[b] {
				served[b] = sb
			}
			if r == 0 || pb < predict[b] {
				predict[b] = pb
			}
		}
	}
	var servedSum, predictSum time.Duration
	for b := range served {
		servedSum, predictSum = servedSum+served[b], predictSum+predict[b]
	}
	perRow := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / (rows * blocks) }
	ratio := float64(servedSum) / float64(predictSum)
	t.Logf("Server.classify %.1f ns/row, Instance.PredictBatch %.1f ns/row, ratio %.3f (budget %.2f)",
		perRow(servedSum), perRow(predictSum), ratio, servedBatchBudget)
	if ratio > servedBatchBudget {
		t.Fatalf("drift accounting makes a served batch cost %.3f× its prediction, budget %.2f×", ratio, servedBatchBudget)
	}
}
