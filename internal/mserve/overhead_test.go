package mserve

import (
	"testing"
	"time"

	"repro/internal/nn"
)

// servedKernelBudget bounds what an Instance may cost over the compiled
// kernel it wraps, as a ratio of two loops timed back to back in this
// process — so the gate means the same on any machine and needs no
// recorded baseline.
const servedKernelBudget = 1.5

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
