package olearn

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/dtrace"
	"repro/internal/features"
	"repro/internal/mserve"
	"repro/internal/readahead"
	"repro/internal/telemetry"
)

// bench is a Controller driven by construction: a real server (so deploy
// and rollback go through the registry) with one deployed model, a drift
// monitor fed synthetic vectors, and the learner hand-off called
// directly — no simulator, no wire.
type bench struct {
	ctl   *Controller
	srv   *mserve.Server
	drift *dtrace.DriftMonitor
	reg   *telemetry.Registry
}

const (
	benchDriftWindow = 4
	benchCanaryN     = 2
)

func newBench(t *testing.T) *bench {
	t.Helper()
	store, err := mserve.OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := mserve.NewServer(mserve.Config{Registry: store})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown(time.Second) })
	var model bytes.Buffer
	if err := readahead.NewModel(1).Save(&model); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Deploy(mserve.KindNN, "init", model.Bytes()); err != nil {
		t.Fatal(err)
	}
	drift := dtrace.NewDriftMonitor(dtrace.DriftConfig{
		Features: 2, Classes: 4, Window: benchDriftWindow,
		TrainMeans: []float64{0, 0}, TrainStds: []float64{1, 1},
	})
	var norm features.Normalizer
	for i := range norm.Z {
		norm.Z[i].StdDev = 1
	}
	ctl, err := New(Config{
		Server:          srv,
		Drift:           drift,
		Norm:            norm,
		Trigger:         TriggerConfig{Sustain: 1, Cooldown: 1},
		Train:           readahead.TrainConfig{Epochs: 1, Batch: 8},
		Capacity:        16,
		MinExamples:     8,
		CanaryWindows:   benchCanaryN,
		BaselineWindows: 4,
		TolerancePM:     25,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctl.Step() // Idle → Collecting
	return &bench{ctl: ctl, srv: srv, drift: drift, reg: srv.MetricsRegistry()}
}

// fire buffers enough examples, completes one drift window 5z from the
// training stats, and steps the controller through any retrain.
func (b *bench) fire(t *testing.T) {
	t.Helper()
	for i := 0; i < 8; i++ {
		b.ctl.AddSample(vec(float64(i%2)), 0, 100)
	}
	for i := 0; i < benchDriftWindow; i++ {
		b.drift.Observe([]float64{5, 5}, 0)
	}
	b.ctl.Step()
	if b.ctl.State() == StateRetraining && !b.ctl.Settle(10*time.Second) {
		t.Fatal("retrain did not settle")
	}
}

// checkMetrics compares every olearn_* scalar in the server's registry
// with the controller's Status: both must read one source.
func (b *bench) checkMetrics(t *testing.T) {
	t.Helper()
	st := b.ctl.Status()
	got := map[string]int64{}
	for _, s := range b.reg.Snapshot() {
		got[s.Name] = s.Value
	}
	for name, want := range map[string]int64{
		"olearn_state":         int64(st.State),
		"olearn_retrains":      int64(st.Retrains),
		"olearn_deploys":       int64(st.Deploys),
		"olearn_rollbacks":     int64(st.Rollbacks),
		"olearn_commits":       int64(st.Commits),
		"olearn_trigger_fires": int64(st.TriggerFires),
		"olearn_examples":      int64(st.Examples),
		"olearn_last_version":  int64(st.LastVersion),
		"olearn_baseline_pm":   st.BaselinePM,
		"olearn_canary_pm":     st.CanaryPM,
	} {
		if v, ok := got[name]; !ok || v != want {
			t.Errorf("%s = %d (registered %v), Status says %d", name, v, ok, want)
		}
	}
}

func vec(v float64) features.Vector {
	var x features.Vector
	for i := range x {
		x[i] = v
	}
	return x
}

// TestControllerByConstruction walks the canary state machine through
// each verdict in milliseconds: the baseline is the mean of the
// pre-deploy outcomes (900 pm here), and the tolerance is 25 pm, so a
// canary mean of 875 commits and 874 rolls back.
func TestControllerByConstruction(t *testing.T) {
	cases := []struct {
		name      string
		baseline  []int64 // version-1 outcomes before the fire
		stale     []int64 // version-1 outcomes arriving during the canary
		canary    []int64 // outcomes of decisions made by the canary version
		wantState State
		wantVer   uint64 // serving after the verdict
	}{
		{name: "benign retrain commits", baseline: []int64{900, 900, 900, 900},
			canary: []int64{910, 900}, wantState: StateCommitted, wantVer: 2},
		{name: "canary at the tolerance boundary commits", baseline: []int64{900, 900, 900, 900},
			canary: []int64{875, 875}, wantState: StateCommitted, wantVer: 2},
		{name: "poisoned retrain one past the boundary rolls back", baseline: []int64{900, 900, 900, 900},
			canary: []int64{874, 874}, wantState: StateRolledBack, wantVer: 1},
		{name: "fire with no baseline deploys nothing",
			wantState: StateCollecting, wantVer: 1},
		{name: "previous-version outcomes do not count toward the canary", baseline: []int64{900, 900, 900, 900},
			stale: []int64{100, 100, 100}, canary: []int64{900, 900}, wantState: StateCommitted, wantVer: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := newBench(t)
			for _, pm := range tc.baseline {
				b.ctl.AddOutcome(1, pm)
			}
			b.fire(t)
			st := b.ctl.Status()
			if st.TriggerFires != 1 {
				t.Fatalf("trigger fires = %d, want 1", st.TriggerFires)
			}
			if tc.baseline == nil {
				if st.Retrains != 0 || st.Deploys != 0 || b.ctl.State() != tc.wantState {
					t.Fatalf("unmeasured fire launched a cycle: %+v", st)
				}
				if fires, retrains := b.reg.Counter("olearn_trigger_fires").Load(), b.reg.Counter("olearn_retrains").Load(); fires != 1 || retrains != 0 {
					t.Fatalf("olearn_trigger_fires/olearn_retrains = %d/%d, want 1/0", fires, retrains)
				}
				if got := b.srv.Deployment().Version(); got != tc.wantVer {
					t.Fatalf("serving v%d, want v%d", got, tc.wantVer)
				}
				b.checkMetrics(t)
				return
			}
			if b.ctl.State() != StateCanary || st.BaselinePM != 900 || b.srv.Deployment().Version() != 2 {
				t.Fatalf("canary not open on v2 against 900 pm: state %d, %+v", b.ctl.State(), st)
			}
			b.checkMetrics(t)
			for _, pm := range tc.stale {
				b.ctl.AddOutcome(1, pm)
			}
			b.ctl.Step()
			if b.ctl.State() != StateCanary || b.ctl.Status().CanaryPM != -1 {
				t.Fatalf("stale outcomes moved the canary: state %d, %+v", b.ctl.State(), b.ctl.Status())
			}
			for _, pm := range tc.canary {
				b.ctl.AddOutcome(2, pm)
			}
			b.ctl.Step()
			if b.ctl.State() != tc.wantState {
				t.Fatalf("state = %d, want %d", b.ctl.State(), tc.wantState)
			}
			if got := b.srv.Deployment().Version(); got != tc.wantVer {
				t.Fatalf("serving v%d, want v%d", got, tc.wantVer)
			}
			ev := b.ctl.Status().Events
			last := ev[len(ev)-1]
			var sum int64
			for _, pm := range tc.canary {
				sum += pm
			}
			if last.BaselinePM != 900 || last.CanaryPM != sum/int64(len(tc.canary)) {
				t.Fatalf("event baseline/canary = %d/%d", last.BaselinePM, last.CanaryPM)
			}
			b.checkMetrics(t)
		})
	}
}

// TestLearnerHandOffAllocFree pins both Learner calls at zero
// allocations: they run inline on the tuner's decision tick.
func TestLearnerHandOffAllocFree(t *testing.T) {
	b := newBench(t)
	v := vec(1)
	if allocs := testing.AllocsPerRun(200, func() {
		b.ctl.AddSample(v, 1, 10)
		b.ctl.AddOutcome(1, 900)
	}); allocs != 0 {
		t.Fatalf("learner hand-off allocates %v per decision, want 0", allocs)
	}
}

// TestMetricsReadWhileLearning snapshots the registry (as the time-series
// recorder and /metrics do) while the learner hand-off and Step run on
// other goroutines: the olearn_* gauges read controller state, so under
// -race this pins that they read it under the controller's lock.
func TestMetricsReadWhileLearning(t *testing.T) {
	b := newBench(t)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = b.reg.Snapshot()
			}
		}
	}()
	for i := 0; i < 4; i++ {
		b.ctl.AddOutcome(1, 900)
	}
	b.fire(t)
	for i := 0; i < benchCanaryN; i++ {
		b.ctl.AddOutcome(2, 900)
		b.ctl.Step()
	}
	close(stop)
	wg.Wait()
	if b.ctl.State() != StateCommitted {
		t.Fatalf("state = %d, want committed", b.ctl.State())
	}
	b.checkMetrics(t)
}

// TestExamplesMissedCounter records more examples between two retrain
// reads than the keep-latest ring holds: olearn_examples_missed must
// count exactly the ones the ring overwrote before the second read.
func TestExamplesMissedCounter(t *testing.T) {
	b := newBench(t)
	missed := b.reg.Counter("olearn_examples_missed")
	for i := 0; i < 4; i++ {
		b.ctl.AddOutcome(1, 900)
	}
	b.fire(t) // first read: the 8 examples fire buffers, none missed
	if st := b.ctl.Status(); st.Retrains != 1 || missed.Load() != 0 {
		t.Fatalf("first read: retrains %d, missed %d; want 1, 0", st.Retrains, missed.Load())
	}
	for i := 0; i < benchCanaryN; i++ {
		b.ctl.AddOutcome(2, 900)
	}
	b.ctl.Step() // canary verdict: commit, and the drift monitor rebaselines
	b.ctl.Step() // back to collecting
	if b.ctl.State() != StateCollecting {
		t.Fatalf("state = %d, want collecting", b.ctl.State())
	}
	// One quiet window refits the drift baseline and re-arms the trigger.
	for i := 0; i < benchDriftWindow; i++ {
		b.drift.Observe([]float64{float64(i % 2), float64(i % 2)}, 0)
	}
	b.ctl.Step()
	capacity := len(b.ctl.scratch)
	const extra = 13
	for i := 0; i < capacity+extra-8; i++ {
		b.ctl.AddSample(vec(1), 0, 100)
	}
	b.fire(t) // adds 8 more: capacity+extra examples since the first read
	if st := b.ctl.Status(); st.Retrains != 2 {
		t.Fatalf("second fire did not retrain: %+v", st)
	}
	if got := missed.Load(); got != extra {
		t.Errorf("olearn_examples_missed = %d, want %d", got, extra)
	}
	b.checkMetrics(t)
}
