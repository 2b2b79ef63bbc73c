package dtrace

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

func gaugeValue(t *testing.T, reg *telemetry.Registry, name string) int64 {
	t.Helper()
	for _, s := range reg.Snapshot() {
		if s.Name == name {
			return s.Value
		}
	}
	t.Fatalf("metric %q not registered", name)
	return 0
}

func TestDriftAgainstTrainingStats(t *testing.T) {
	m := NewDriftMonitor(DriftConfig{
		Features:   2,
		Classes:    3,
		Window:     4,
		TrainMeans: []float64{10, 0},
		TrainStds:  []float64{2, 1},
	})
	// First window sits exactly on the training means: no shift.
	for i := 0; i < 4; i++ {
		m.Observe([]float64{10, 0}, 1)
	}
	r := m.Report()
	if !r.BaselineReady || r.Windows != 1 || r.Decisions != 4 {
		t.Fatalf("after window 1: %+v", r)
	}
	if r.MaxShift != 0 || r.Drifted {
		t.Fatalf("on-distribution window reported shift %v", r.Shift)
	}
	if r.ClassSharePM[1] != 1000 || r.ChurnPM != 0 {
		t.Fatalf("class share / churn wrong: %+v", r)
	}
	// Second window: feature 0 moves to 16 = (16-10)/2 = +3σ → drifted.
	for i := 0; i < 4; i++ {
		m.Observe([]float64{16, 0}, 2)
	}
	r = m.Report()
	if r.Windows != 2 {
		t.Fatalf("Windows = %d, want 2", r.Windows)
	}
	if r.Shift[0] != 3 || r.Shift[1] != 0 {
		t.Fatalf("Shift = %v, want [3 0]", r.Shift)
	}
	if r.MaxShift != 3 || r.MaxShiftFeature != 0 || !r.Drifted {
		t.Fatalf("drift not flagged: %+v", r)
	}
	if r.ClassSharePM[2] != 1000 {
		t.Fatalf("class share should follow the window: %+v", r)
	}
}

func TestDriftSelfBaseline(t *testing.T) {
	m := NewDriftMonitor(DriftConfig{Features: 1, Classes: 2, Window: 8})
	if m.Report().BaselineReady {
		t.Fatal("baseline should not be ready before the first window")
	}
	// First window fits the baseline: values 0..7 → mean 3.5.
	for i := 0; i < 8; i++ {
		m.Observe([]float64{float64(i)}, 0)
	}
	r := m.Report()
	if !r.BaselineReady {
		t.Fatal("first window should fit the baseline")
	}
	if r.MaxShift != 0 {
		t.Fatalf("baseline window should report zero shift, got %v", r.Shift)
	}
	// Shifted second window moves the gauge off zero.
	for i := 0; i < 8; i++ {
		m.Observe([]float64{100}, 0)
	}
	r = m.Report()
	if r.Shift[0] <= 0 {
		t.Fatalf("shifted window should report positive shift, got %v", r.Shift)
	}
}

func TestDriftChurnAndZeroStd(t *testing.T) {
	m := NewDriftMonitor(DriftConfig{
		Features:   1,
		Classes:    2,
		Window:     4,
		TrainMeans: []float64{5},
		TrainStds:  []float64{0}, // degenerate: feature never varied in training
	})
	classes := []int{0, 1, 0, 1} // every decision flips class
	for _, c := range classes {
		m.Observe([]float64{6}, c)
	}
	r := m.Report()
	if r.ChurnPM != 750 {
		t.Fatalf("ChurnPM = %d, want 750 (3 flips / 4 decisions)", r.ChurnPM)
	}
	if r.Shift[0] != maxShiftZ {
		t.Fatalf("zero-std movement should saturate at %v, got %v", maxShiftZ, r.Shift[0])
	}
}

func TestDriftObserveBatch(t *testing.T) {
	m := NewDriftMonitor(DriftConfig{
		Features:   2,
		Classes:    2,
		Window:     4,
		TrainMeans: []float64{0, 0},
		TrainStds:  []float64{1, 1},
	})
	feats := []float64{
		1, 2,
		1, 2,
		1, 2,
		1, 2,
	}
	m.ObserveBatch(feats, 4, 2, []int{0, 0, 1, 1})
	r := m.Report()
	if r.Windows != 1 || r.Decisions != 4 {
		t.Fatalf("batch should complete the window: %+v", r)
	}
	if r.Shift[0] != 1 || r.Shift[1] != 2 {
		t.Fatalf("Shift = %v, want [1 2]", r.Shift)
	}
	if r.ClassSharePM[0] != 500 || r.ClassSharePM[1] != 500 {
		t.Fatalf("class shares = %v, want [500 500]", r.ClassSharePM)
	}
	// Degenerate batches are ignored.
	m.ObserveBatch(nil, 0, 2, nil)
	m.ObserveBatch(feats, 4, 2, []int{0})
	if m.Report().Decisions != 4 {
		t.Fatal("degenerate batches should be ignored")
	}
}

// TestObserveBatchMatchesObserve feeds the same rows to one monitor in
// batches that start and end anywhere relative to the window and to
// another one row at a time: reports, gauges and the open window's
// accounting must be equal bit for bit after every batch. The features
// mix magnitudes, so a sum that took its rows in another order would
// differ in its low bits, and some classes are out of range.
func TestObserveBatchMatchesObserve(t *testing.T) {
	const features, classes, window = 3, 4, 16
	for _, tc := range []struct {
		name string
		cfg  DriftConfig
	}{
		{"self-baselined", DriftConfig{Features: features, Classes: classes, Window: window}},
		{"training stats", DriftConfig{Features: features, Classes: classes, Window: window,
			TrainMeans: []float64{0, 1e6, -3}, TrainStds: []float64{1, 2e5, 1e-3}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			batchReg, rowReg := telemetry.NewRegistry(), telemetry.NewRegistry()
			batch, row := NewDriftMonitor(tc.cfg), NewDriftMonitor(tc.cfg)
			batch.RegisterMetrics(batchReg, "drift")
			row.RegisterMetrics(rowReg, "drift")
			for step := 0; step < 200; step++ {
				rows := 1 + rng.Intn(3*window)
				feats := make([]float64, rows*features)
				for i := range feats {
					feats[i] = rng.NormFloat64() * []float64{1e-3, 1, 1e9}[rng.Intn(3)]
				}
				cls := make([]int, rows)
				for i := range cls {
					cls[i] = rng.Intn(classes+2) - 1
				}
				batch.ObserveBatch(feats, rows, features, cls)
				for r := 0; r < rows; r++ {
					row.Observe(feats[r*features:(r+1)*features], cls[r])
				}
				if b, r := batch.Report(), row.Report(); !reflect.DeepEqual(b, r) {
					t.Fatalf("step %d: ObserveBatch report %+v, Observe report %+v", step, b, r)
				}
				if b, r := batchReg.Snapshot(), rowReg.Snapshot(); !reflect.DeepEqual(b, r) {
					t.Fatalf("step %d: ObserveBatch gauges %v, Observe gauges %v", step, b, r)
				}
				if !reflect.DeepEqual(batch.winSum, row.winSum) || !reflect.DeepEqual(batch.fit, row.fit) ||
					!reflect.DeepEqual(batch.winClass, row.winClass) || batch.winN != row.winN ||
					batch.churn != row.churn || batch.lastCls != row.lastCls || batch.haveCls != row.haveCls {
					t.Fatalf("step %d: open windows differ", step)
				}
			}
			if r := batch.Report(); r.Windows < 100 || !r.BaselineReady {
				t.Fatalf("only %d windows completed (baseline ready %v)", r.Windows, r.BaselineReady)
			}
		})
	}
}

func TestDriftGauges(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewDriftMonitor(DriftConfig{
		Features:   1,
		Classes:    2,
		Window:     2,
		TrainMeans: []float64{0},
		TrainStds:  []float64{1},
	})
	m.RegisterMetrics(reg, "drift")
	if got := gaugeValue(t, reg, "drift_max_shift_mz"); got != 0 {
		t.Fatalf("gauge before any window = %d, want 0", got)
	}
	m.Observe([]float64{2.5}, 1)
	m.Observe([]float64{2.5}, 1)
	if got := gaugeValue(t, reg, "drift_shift_mz_0"); got != 2500 {
		t.Fatalf("drift_shift_mz_0 = %d, want 2500", got)
	}
	if got := gaugeValue(t, reg, "drift_max_shift_mz"); got != 2500 {
		t.Fatalf("drift_max_shift_mz = %d, want 2500", got)
	}
	if got := gaugeValue(t, reg, "drift_drifted"); got != 1 {
		t.Fatalf("drift_drifted = %d, want 1", got)
	}
	if got := gaugeValue(t, reg, "drift_windows"); got != 1 {
		t.Fatalf("drift_windows = %d, want 1", got)
	}
	if got := gaugeValue(t, reg, "drift_decisions"); got != 2 {
		t.Fatalf("drift_decisions = %d, want 2", got)
	}
	if got := gaugeValue(t, reg, "drift_class_share_pm_1"); got != 1000 {
		t.Fatalf("drift_class_share_pm_1 = %d, want 1000", got)
	}
	// Re-registration after a redeploy reuses the same gauges.
	m2 := NewDriftMonitor(DriftConfig{Features: 1, Classes: 2, Window: 2})
	m2.RegisterMetrics(reg, "drift")
	var names []string
	for _, s := range reg.Snapshot() {
		names = append(names, s.Name)
	}
	joined := strings.Join(names, ",")
	if strings.Count(joined, "drift_max_shift_mz") != 1 {
		t.Fatalf("re-registration duplicated gauges: %s", joined)
	}
}

func TestDriftObserveAllocFree(t *testing.T) {
	m := NewDriftMonitor(DriftConfig{
		Features:   4,
		Classes:    4,
		Window:     64,
		TrainMeans: []float64{0, 0, 0, 0},
		TrainStds:  []float64{1, 1, 1, 1},
	})
	feats := []float64{1, 2, 3, 4}
	allocs := testing.AllocsPerRun(1000, func() {
		m.Observe(feats, 1)
	})
	if allocs != 0 {
		t.Fatalf("Observe allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestDriftConfigValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("no features", func() { NewDriftMonitor(DriftConfig{Classes: 2}) })
	mustPanic("no classes", func() { NewDriftMonitor(DriftConfig{Features: 2}) })
	mustPanic("means without stds", func() {
		NewDriftMonitor(DriftConfig{Features: 1, Classes: 1, TrainMeans: []float64{0}})
	})
	mustPanic("length mismatch", func() {
		NewDriftMonitor(DriftConfig{Features: 2, Classes: 1, TrainMeans: []float64{0}, TrainStds: []float64{1}})
	})
}

func TestDriftRebaseline(t *testing.T) {
	m := NewDriftMonitor(DriftConfig{
		Features:   1,
		Classes:    2,
		Window:     4,
		TrainMeans: []float64{0},
		TrainStds:  []float64{1},
	})
	// Live mean 10 vs training mean 0/std 1: massive shift, drifted.
	for i := 0; i < 4; i++ {
		m.Observe([]float64{10}, 0)
	}
	if r := m.Report(); !r.Drifted || r.MaxShift < 5 {
		t.Fatalf("expected drifted report before rebaseline, got %+v", r)
	}
	// Rebaseline: the verdict clears immediately and the next completed
	// window refits the reference on the NEW population, so the same
	// traffic no longer reads as drift.
	m.Rebaseline()
	if r := m.Report(); r.Drifted || r.BaselineReady {
		t.Fatalf("rebaselined monitor should be undrifted with no baseline, got %+v", r)
	}
	for i := 0; i < 8; i++ {
		m.Observe([]float64{10}, 0)
	}
	r := m.Report()
	if !r.BaselineReady {
		t.Fatal("baseline should refit after a completed window")
	}
	if r.Drifted || abs(r.Shift[0]) > 0.5 {
		t.Fatalf("post-rebaseline traffic at the new mean should not drift, got %+v", r)
	}
	// A fresh shift against the refit baseline is detected again.
	for i := 0; i < 4; i++ {
		m.Observe([]float64{200}, 0)
	}
	if r := m.Report(); !r.Drifted {
		t.Fatalf("shift against refit baseline should drift, got %+v", r)
	}
}
