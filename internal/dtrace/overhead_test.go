package dtrace

import (
	"testing"
	"time"
)

// TraceOverheadBudgetNanos bounds the span tax one traced decision may
// add to the decision path. The budget is 100 ns for the WHOLE span
// tree bookkeeping of one decision (Start + Begin/End + Finish +
// Record) — generous next to the paper's 49 ns per-EVENT collection
// budget because tracing runs once per decision window (thousands of
// events), not per event; see EXPERIMENTS.md.
const TraceOverheadBudgetNanos = 100

var sink int64

func measure(iters, rounds int, f func(n int)) float64 {
	best := time.Duration(1<<63 - 1)
	for r := 0; r < rounds; r++ {
		start := time.Now()
		f(iters)
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds()) / float64(iters)
}

// TestTraceOverheadBudget measures the span start/finish tax on the
// decision path — mint an ID, open the root, open/close one child span
// with attributes, finish, record into the arena — against a bare
// baseline loop, and fails if the delta exceeds the budget. Same
// discipline as telemetry's TestOverheadBudget: best-of-rounds filters
// scheduler noise, and CI runs it on every push.
func TestTraceOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing assertion skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race detector intercepts atomics; timings would measure the detector")
	}
	const iters = 1_000_000
	const rounds = 5

	bare := measure(iters, rounds, func(n int) {
		var acc int64
		for i := 0; i < n; i++ {
			acc += int64(i)
		}
		sink += acc
	})

	a := NewArena(256)
	var b Builder
	instr := measure(iters, rounds, func(n int) {
		var acc int64
		for i := 0; i < n; i++ {
			acc += int64(i)
			b.Start(a.NextID(), int64(i))
			idx := b.Begin(StageInfer, 0, int64(i))
			b.SetValue(idx, 2)
			b.SetAux(idx, 1)
			b.End(idx, int64(i+1))
			a.Record(b.Finish(int64(i + 2)))
		}
		sink += acc
	})

	tax := instr - bare
	t.Logf("bare %.1f ns/op, traced %.1f ns/op, span tax %.1f ns/decision (budget %d ns)",
		bare, instr, tax, TraceOverheadBudgetNanos)
	if tax > TraceOverheadBudgetNanos {
		t.Fatalf("span tax %.1f ns/decision exceeds the %d ns budget; "+
			"decision tracing is no longer cheap enough to leave always-on",
			tax, TraceOverheadBudgetNanos)
	}
	if a.Len() == 0 {
		t.Fatal("traced loop did not run")
	}
}

// BenchmarkE8_TraceSpan measures the full decision-trace tax: one root
// span, four children with attributes, finish, and an arena record —
// everything tracing adds to a decision window beyond the work itself.
// The paper budgets ~49 ns for its per-event collection path; the whole
// per-DECISION trace (six span writes) must stay well under the 100 ns
// budget TestTraceOverheadBudget pins, and TestSpanRecordAllocFree keeps
// it at 0 allocs.
func BenchmarkE8_TraceSpan(b *testing.B) {
	a := NewArena(1024)
	var bld Builder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := int64(i)
		bld.Start(a.NextID(), now)
		si := bld.Begin(StageFeature, 0, now)
		bld.End(si, now+1)
		bld.SetValue(si, 50)
		si = bld.Begin(StageInfer, 0, now+1)
		bld.End(si, now+2)
		bld.SetValue(si, 1)
		bld.SetAux(si, 7)
		si = bld.Begin(StageApply, 0, now+2)
		bld.End(si, now+3)
		si = bld.Begin(StageOutcome, 0, now+3)
		bld.End(si, now+4)
		a.Record(bld.Finish(now + 4))
	}
	sink += int64(a.Len())
}

func BenchmarkArenaSnapshot(b *testing.B) {
	a := NewArena(256)
	for i := 0; i < 256; i++ {
		tr := buildTestTrace(a.NextID())
		a.Record(&tr)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += int64(len(a.Snapshot()))
	}
}
