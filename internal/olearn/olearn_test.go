package olearn

import (
	"bytes"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/features"
	"repro/internal/mserve"
	"repro/internal/readahead"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The e2e tests and the labeler-oracle test share one simulated training
// dataset (collection dominates their cost); it is fitted once.
var (
	dsOnce   sync.Once
	dsRaw    []features.Vector
	dsLabels []int
	dsNorm   features.Normalizer
	dsErr    error
)

func dataset(t *testing.T) ([]features.Vector, []int, features.Normalizer) {
	t.Helper()
	if testing.Short() {
		t.Skip("simulated dataset collection")
	}
	dsOnce.Do(func() {
		dsRaw, dsLabels, dsErr = readahead.CollectDataset(
			sim.Config{Profile: blockdev.NVMe(), Keys: 6000, CachePages: 480, Seed: 3},
			readahead.DatasetConfig{SecondsPerRun: 8, RASectors: []int{8, 256}},
		)
		if dsErr == nil {
			dsNorm = features.FitNormalizer(dsRaw)
		}
	})
	if dsErr != nil {
		t.Fatal(dsErr)
	}
	return dsRaw, dsLabels, dsNorm
}

// trainModelBytes fits the readahead network on (x, y) and serializes it.
func trainModelBytes(t *testing.T, norm features.Normalizer, x []features.Vector, y []int, seed int64) []byte {
	t.Helper()
	nx := norm.ApplyAll(x)
	net := readahead.NewModel(seed)
	readahead.TrainModel(net, nx, y, readahead.TrainConfig{Epochs: 80, Seed: seed})
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// loop is one assembled online-learning deployment: the simulated stack,
// a serving control plane, a deployed tuner following it, and the
// controller closing the loop.
type loop struct {
	env   *sim.Env
	srv   *mserve.Server
	dep   *mserve.Deployment[readahead.Classifier]
	tuner *readahead.Tuner
	ctl   *Controller
}

// contrastPolicy spreads the per-class readahead wide (256 sectors for
// a scan vs 8 for random) so model quality shows up in the page-cache
// hit rate: a scan misclassified as random is starved down to one page
// per miss. The reverse error — polluting uniform random traffic with
// big fills — barely moves the hit rate (any 128 cached pages serve
// uniform access equally well), which is why the e2e scenarios are
// built around scan starvation. Both values sit inside the training
// dataset's readahead range {8, 256}: a setting the model never saw in
// training puts the (clipped) readahead feature out of distribution and
// makes its predictions arbitrary.
var contrastPolicy = readahead.Policy{0: 256, 1: 8, 2: 8, 3: 8}

// newLoop deploys initialModel as version 1 and wires tuner, drift
// monitor, and controller exactly as cmd/kml-served does.
func newLoop(t *testing.T, norm features.Normalizer, initialModel []byte, trig TriggerConfig) *loop {
	t.Helper()
	// 128 cache pages against a ~600-page dataset, so readahead decisions
	// dominate the hit rate instead of the cache covering everything.
	env, err := sim.NewEnv(sim.Config{Profile: blockdev.NVMe(), Keys: 6000, CachePages: 128, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := mserve.OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := mserve.NewServer(mserve.Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown(2 * time.Second) })
	if _, err := srv.Deploy(mserve.KindNN, "init", initialModel); err != nil {
		t.Fatal(err)
	}
	inst, err := reg.Instance(1)
	if err != nil {
		t.Fatal(err)
	}
	dep := mserve.NewDeployment[readahead.Classifier](inst, 1)
	tuner, err := readahead.NewDeployedTuner(env.Dev, dep, norm,
		readahead.TunerConfig{Policy: contrastPolicy, Outcome: env.Cache.HitMissCounts})
	if err != nil {
		t.Fatal(err)
	}
	env.Tracer.Register(tuner.Hook())
	tuner.EnableTracing(srv.TraceArena())
	drift := tuner.InstrumentDrift(nil, 8)
	ctl, err := New(Config{
		Server:      srv,
		Drift:       drift,
		Norm:        norm,
		TunerDeploy: dep,
		Trigger:     trig,
		// Small batch so a handful of online examples still forms full
		// minibatches; the keep-latest capacity of 16 means post-shift
		// windows quickly dominate the snapshot a retrain sees.
		Train:           readahead.TrainConfig{Epochs: 120, Batch: 8},
		Capacity:        16,
		MinExamples:     8,
		CanaryWindows:   3,
		BaselineWindows: 4,
		TolerancePM:     25,
	})
	if err != nil {
		t.Fatal(err)
	}
	tuner.SetLearner(ctl)
	srv.SetLearnSource(ctl.Status)
	tuner.MaybeTick(env.Clk.Now()) // arm the first decision window
	return &loop{env: env, srv: srv, dep: dep, tuner: tuner, ctl: ctl}
}

// run drives n one-second decision windows of kind through the loop,
// stepping the controller after every window and waiting out background
// retrains (real time only — invisible to the virtual clock).
func (l *loop) run(t *testing.T, kind workload.Kind, n int) {
	t.Helper()
	runner := l.env.NewRunner(kind)
	for w := 0; w < n; w++ {
		deadline := l.env.Clk.Now() + 1100*time.Millisecond
		for l.env.Clk.Now() < deadline {
			for i := 0; i < 16 && l.env.Clk.Now() < deadline; i++ {
				if err := runner.Step(); err != nil {
					t.Fatal(err)
				}
			}
			// Drain the collection ring between step batches (MaybeTick
			// flushes every call but decides once per window), so a
			// big-readahead event storm cannot overflow it.
			l.tuner.MaybeTick(l.env.Clk.Now())
		}
		l.ctl.Step()
		if l.ctl.State() == StateRetraining && !l.ctl.Settle(60*time.Second) {
			t.Fatal("retrain did not settle")
		}
	}
}

// TestOnlineLearningEndToEnd is the acceptance path: a model that calls
// everything random access is deployed, the workload shifts from
// readrandom to readseq — which the stuck model starves of readahead —
// drift fires, the controller retrains on live windows in the
// background, deploys through the registry, and the canary-committed
// model measurably recovers the page-cache hit rate.
func TestOnlineLearningEndToEnd(t *testing.T) {
	raw, _, norm := dataset(t)
	// Initial model: trained to answer class 1 (readrandom) for every
	// window — competent during phase 1, maximally wrong after the shift.
	allRandom := make([]int, len(raw))
	for i := range allRandom {
		allRandom[i] = classReadRandom
	}
	bad := trainModelBytes(t, norm, raw, allRandom, 11)

	// Sustain 2: the fire lands one full drift window after the shift, so
	// the example ring has turned over to post-shift windows.
	l := newLoop(t, norm, bad, TriggerConfig{Sustain: 2, Cooldown: 1})

	// Phase 1: random reads. The stuck-at-1 model is right about them,
	// but a pure-random population sits ~2.6z from the mixed training
	// statistics on the jump-magnitude feature, so cycle 1 fires here: a
	// retrain on random-only windows that commits without changing
	// behavior, after which the monitor rebaselines and the trigger
	// re-arms on the now-stable distribution.
	l.run(t, workload.ReadRandom, 32)

	// Phase 2: the shift. The model keeps answering 1, the 8-sector
	// readahead starves the scan (~90% hit rate instead of ~99.8%), the
	// rebaselined monitor sees the feature population jump, and the
	// retrain fires with mixed random+seq examples the heuristic labeler
	// separates.
	l.run(t, workload.ReadSeq, 28)

	st := l.ctl.Status()
	if st.Retrains < 2 {
		t.Fatalf("retrains = %d, want >= 2 (phase-1 readahead drift + phase-2 shift)", st.Retrains)
	}
	if st.Commits < 2 {
		t.Fatalf("commits = %d, want >= 2 (status: %+v)", st.Commits, st)
	}
	if st.Rollbacks != 0 {
		t.Fatalf("rollbacks = %d, want 0", st.Rollbacks)
	}
	if got := l.srv.Deployment().Version(); got != st.LastVersion || got < 3 {
		t.Fatalf("server serving v%d, controller says v%d", got, st.LastVersion)
	}
	if got := l.dep.Version(); got != st.LastVersion {
		t.Fatalf("tuner deployment v%d out of lockstep with v%d", got, st.LastVersion)
	}

	// The committed phase-2 model must beat the polluted pre-deploy
	// baseline on the canary's post-deploy windows — the "did it help"
	// criterion, measured by the same outcome spans that feed `kml-ctl trace`.
	events := l.ctl.Status().Events
	for i, e := range events {
		t.Logf("event %d: v%d outcome=%s examples=%d baseline=%d canary=%d shift=%dmz",
			i, e.Version, mserve.RetrainOutcomeName(e.Outcome), e.Examples, e.BaselinePM, e.CanaryPM, e.MaxShiftMZ)
	}
	last := events[len(events)-1]
	if last.Outcome != mserve.RetrainCommitted {
		t.Fatalf("last retrain outcome = %s, want committed", mserve.RetrainOutcomeName(last.Outcome))
	}
	if last.BaselinePM < 0 || last.CanaryPM <= last.BaselinePM {
		t.Fatalf("canary %d pm did not improve on polluted baseline %d pm", last.CanaryPM, last.BaselinePM)
	}

	// The recovered model must actually be driving the device sensibly:
	// scan-phase decisions end at 256 sectors, not the starved 8.
	ds := l.tuner.Decisions()
	final := ds[len(ds)-1]
	if final.Class != classReadSeq || final.Sectors != 256 {
		t.Fatalf("final decision %+v, want class 0 at 256 sectors", final)
	}
	if l.tuner.Dropped() != 0 {
		t.Fatalf("collection ring dropped %d events", l.tuner.Dropped())
	}

	// Steady state under the committed model beats the starved pre-deploy
	// baseline decisively, not just by the canary's early margin.
	h0, m0 := l.env.Cache.HitMissCounts()
	l.run(t, workload.ReadSeq, 6)
	h1, m1 := l.env.Cache.HitMissCounts()
	steadyPM := int64((h1 - h0) * 1000 / ((h1 - h0) + (m1 - m0)))
	t.Logf("steady-state hit rate %d pm vs starved baseline %d pm", steadyPM, last.BaselinePM)
	if steadyPM <= last.BaselinePM+10 {
		t.Fatalf("steady-state hit rate %d pm does not clear starved baseline %d pm", steadyPM, last.BaselinePM)
	}
}

// TestOnlinePoisonRollback injects a regressing retrain (every example
// labeled "random", starving the running scan of readahead) into a
// healthy sequential loop and checks the canary rolls it back within
// its window — while wire clients hammer the serving path through both
// swaps with zero failed inferences.
func TestOnlinePoisonRollback(t *testing.T) {
	raw, labels, norm := dataset(t)
	good := trainModelBytes(t, norm, raw, labels, 12)

	// A small shift budget (0.5z) makes the trigger fire on the healthy
	// workload's natural distance from the mixed training population, so
	// the poisoned cycle starts without needing a workload shift.
	l := newLoop(t, norm, good, TriggerConfig{ShiftBudgetMilliZ: 500, Sustain: 1, Cooldown: 1})
	l.ctl.PoisonRetrain(1)

	// Wire traffic concurrent with the deploy and rollback swaps.
	sock := startWireServer(t, l.srv)
	var stop atomic.Bool
	var served, failed atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := mserve.Dial("unix", sock)
			if err != nil {
				failed.Add(1)
				return
			}
			defer cl.Close()
			cl.SetTimeout(5 * time.Second)
			feats := []float64{0.1, -0.2, 0.3, 0.4}
			for !stop.Load() {
				if _, _, err := cl.Infer(feats); err != nil {
					failed.Add(1)
					return
				}
				served.Add(1)
			}
		}()
	}

	l.run(t, workload.ReadSeq, 28)
	stop.Store(true)
	wg.Wait()

	if n := failed.Load(); n != 0 {
		t.Fatalf("%d wire inferences failed during swaps", n)
	}
	if served.Load() == 0 {
		t.Fatal("wire clients served nothing")
	}

	st := l.ctl.Status()
	if st.Retrains < 1 || st.Deploys < 1 {
		t.Fatalf("poisoned cycle never ran: %+v", st)
	}
	if st.Rollbacks != 1 {
		t.Fatalf("rollbacks = %d, want exactly 1 (status: %+v)", st.Rollbacks, st)
	}
	events := l.ctl.Status().Events
	var rb *mserve.RetrainEvent
	for i := range events {
		if events[i].Outcome == mserve.RetrainRolledBack {
			rb = &events[i]
		}
	}
	if rb == nil {
		t.Fatal("no rolled-back retrain event recorded")
	}
	if rb.CanaryPM >= rb.BaselinePM-25 {
		t.Fatalf("rollback event canary %d pm vs baseline %d pm is not a tolerance breach", rb.CanaryPM, rb.BaselinePM)
	}

	// Both planes are back on the good version.
	if got := l.srv.Deployment().Version(); got != 1 {
		t.Fatalf("server serving v%d after rollback, want v1", got)
	}
	if got := l.dep.Version(); got != 1 {
		t.Fatalf("tuner deployment v%d after rollback, want v1", got)
	}
	// And the device is back out of the starved regime.
	ds := l.tuner.Decisions()
	final := ds[len(ds)-1]
	if final.Sectors != 256 {
		t.Fatalf("final decision %+v, want 256 sectors after recovery", final)
	}

	// The wire snapshot agrees with the in-process one.
	cl, err := mserve.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ws, err := cl.LearnStatus()
	if err != nil {
		t.Fatal(err)
	}
	if ws.Rollbacks != st.Rollbacks || ws.Retrains != st.Retrains {
		t.Fatalf("wire status %+v disagrees with controller %+v", ws, st)
	}
	if len(ws.Events) == 0 {
		t.Fatal("wire status carries no retrain events")
	}
}

// startWireServer serves l.srv on a unix socket torn down with the test.
func startWireServer(t *testing.T, srv *mserve.Server) string {
	t.Helper()
	sock := t.TempDir() + "/olearn.sock"
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Shutdown(2 * time.Second)
		<-done
	})
	return sock
}
