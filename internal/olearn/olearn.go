// Package olearn closes the loop the paper frames as KML's continuous
// lifecycle: train in user space, deploy live, watch for staleness,
// retrain, redeploy — with the storage system's own reward signal (the
// page-cache hit rate the tuner attributes to each decision and hands
// over directly) guarding every deployment.
//
// The controller is a state machine:
//
//	Idle → Collecting → Retraining → Canary → Committed ─┐
//	          ▲  ▲                      └──→ RolledBack ─┤
//	          │  └───────────────────────────────────────┘
//	          └── (cooldown + drift rebaseline)
//
// In each state:
//
//   - Collecting: the co-located tuner, as the controller's
//     readahead.Learner, hands over one raw feature window per decision
//     (AddSample, into a keep-latest example ring) and each decision's
//     attributed outcome (AddOutcome). When the DriftMonitor completes a
//     window, its max shift / churn feed the hysteresis Trigger.
//   - Retraining: on a trigger fire with enough unconsumed examples and
//     at least one attributed outcome to judge against (otherwise the
//     fire lapses), a background goroutine labels the examples
//     heuristically, normalizes them with the FROZEN deployed
//     normalizer, trains a fresh network, and serializes it. The serve
//     loop and the decision tick never block on this.
//   - Canary: the new version is deployed through the registry's atomic
//     deploy; the pre-deploy hit-rate baseline (mean of recent outcome
//     windows) is frozen; the next CanaryWindows outcomes of decisions
//     made BY THE NEW VERSION are averaged against it.
//   - Committed / RolledBack: canary mean within tolerance commits the
//     version; a regression beyond tolerance rolls back via the
//     registry, restoring the previous version for the server and the
//     tuner in one swap each. Either way the drift monitor rebaselines
//     (the verdict consumed its reference population) and the machine
//     returns to Collecting.
//
// Everything observable is exported: telemetry counters/gauges under
// olearn_* in the server's registry, the retained retrain-event history,
// and the MsgLearnStatus wire snapshot `kml-ctl status` and `kml-ctl
// learn` print. The counters are the controller's only copy of those
// numbers, and the gauges read the fields the state machine keeps, so
// Status and /metrics cannot disagree.
package olearn

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dtrace"
	"repro/internal/features"
	"repro/internal/mserve"
	"repro/internal/readahead"
	"repro/internal/telemetry"
)

// State is the controller's state-machine position. Values mirror the
// wire constants in mserve/learnstatus.go.
type State uint8

// Controller states.
const (
	StateIdle       = State(mserve.LearnIdle)
	StateCollecting = State(mserve.LearnCollecting)
	StateRetraining = State(mserve.LearnRetraining)
	StateCanary     = State(mserve.LearnCanary)
	StateCommitted  = State(mserve.LearnCommitted)
	StateRolledBack = State(mserve.LearnRolledBack)
)

// Config parameterizes a Controller.
type Config struct {
	// Server is the serving control plane the controller deploys through,
	// whose registry it reads artifacts back from, and whose telemetry
	// registry holds the olearn_* metrics. Required.
	Server *mserve.Server
	// Drift is the monitor watched for retrain pressure — normally the
	// co-located tuner's training-stats-baselined monitor. Required.
	Drift *dtrace.DriftMonitor
	// Norm is the frozen normalizer retraining standardizes examples
	// with, exactly as the original training run did.
	Norm features.Normalizer
	// TunerDeploy, when set, is a co-located tuner's hot-swap handle the
	// controller keeps in lockstep with the server: every deploy and
	// rollback swaps a freshly instantiated classifier into it.
	TunerDeploy *mserve.Deployment[core.Classifier]
	// Trigger tunes the drift→retrain decision rule.
	Trigger TriggerConfig
	// Train tunes the background retraining run (paper defaults).
	Train readahead.TrainConfig
	// ModelName names deployed versions ("<ModelName>-r<N>"); "" means
	// "olearn".
	ModelName string
	// Capacity sizes the keep-latest example ring (rounded up to a power
	// of two); 0 means 512.
	Capacity int
	// MinExamples is the fewest buffered examples a retrain will run
	// with; 0 means 64.
	MinExamples int
	// CanaryWindows is how many new-version outcome windows the canary
	// averages before judging; 0 means 4.
	CanaryWindows int
	// BaselineWindows is how many recent outcome windows form the
	// pre-deploy baseline; 0 means 8.
	BaselineWindows int
	// TolerancePM rolls back when canary mean < baseline − tolerance
	// (hit rate per-mille); 0 means 25.
	TolerancePM int64
}

func (c Config) withDefaults() Config {
	if c.ModelName == "" {
		c.ModelName = "olearn"
	}
	if c.Capacity == 0 {
		c.Capacity = 512
	}
	if c.MinExamples == 0 {
		c.MinExamples = 64
	}
	if c.CanaryWindows == 0 {
		c.CanaryWindows = 4
	}
	if c.BaselineWindows == 0 {
		c.BaselineWindows = 8
	}
	if c.TolerancePM == 0 {
		c.TolerancePM = 25
	}
	return c
}

// example is one buffered training sample: the raw candidate vector and
// the class the then-deployed model predicted (retraining ignores the
// prediction and relabels heuristically; it is retained for diagnosis).
type example struct {
	raw   features.Vector
	class int32
}

// outcomeSample is one decision's attributed outcome: the hit rate of
// its outcome window and the model version that made the call.
type outcomeSample struct {
	version uint64
	ratePM  int64
}

// The controller is the co-located tuner's online learner.
var _ readahead.Learner = (*Controller)(nil)

// retrainResult is what the background goroutine hands back to Step: it
// fills the fields, then closes done.
type retrainResult struct {
	done     chan struct{}
	model    []byte
	examples int
	dur      time.Duration
	poisoned bool
	err      error
}

// Controller runs the online-learning loop. AddSample and AddOutcome are
// safe to call concurrently with Step; all three are cheap. Retraining
// happens on a private goroutine.
type Controller struct {
	cfg Config

	mu       sync.Mutex
	state    State
	examples *telemetry.FlightRecorder[example]
	consumed uint64    // examples cursor the last retrain consumed up to
	scratch  []example // snapshot buffer handed to the retrain goroutine
	outcomes *telemetry.FlightRecorder[outcomeSample]
	outBuf   []outcomeSample // baseline read buffer, BaselineWindows long

	lastWindows  uint64 // drift windows already fed to the trigger
	trigger      *Trigger
	fireShiftMZ  int64 // signal captured at the last fire
	fireChurnPM  int64
	pending      *retrainResult
	poisonSeq    uint64 // 1-based retrain cycle to poison; 0 = none
	canaryVer    uint64 // the last deployed version
	baselinePM   int64
	canarySum    int64
	canaryN      int
	lastEventIdx int // index of the in-flight cycle's event (-1 none)

	events []mserve.RetrainEvent // retained history, oldest first

	// The lifecycle counters, in the server's registry. cRetrains also
	// numbers the cycles: the Nth retrain deploys "<ModelName>-rN".
	cRetrains, cDeploys, cRollbacks, cCommits, cFires, cFailures *telemetry.Counter
	hRetrainNs                                                   *telemetry.Histogram
}

// New builds a controller. It starts in StateIdle; the first Step moves
// it to Collecting.
func New(cfg Config) (*Controller, error) {
	if cfg.Server == nil || cfg.Drift == nil {
		return nil, errors.New("olearn: Server and Drift are required")
	}
	cfg = cfg.withDefaults()
	c := &Controller{
		cfg:          cfg,
		examples:     telemetry.NewFlightRecorder[example](cfg.Capacity),
		outcomes:     telemetry.NewFlightRecorder[outcomeSample](cfg.BaselineWindows),
		outBuf:       make([]outcomeSample, cfg.BaselineWindows),
		trigger:      NewTrigger(cfg.Trigger),
		baselinePM:   -1,
		lastEventIdx: -1,
	}
	c.scratch = make([]example, c.examples.Cap())
	reg := cfg.Server.MetricsRegistry()
	c.cRetrains = reg.Counter("olearn_retrains")
	c.cDeploys = reg.Counter("olearn_deploys")
	c.cRollbacks = reg.Counter("olearn_rollbacks")
	c.cCommits = reg.Counter("olearn_commits")
	c.cFires = reg.Counter("olearn_trigger_fires")
	c.cFailures = reg.Counter("olearn_retrain_failures")
	c.hRetrainNs = reg.Histogram("olearn_retrain_ns")
	for name, read := range map[string]func() int64{
		"olearn_state":        func() int64 { return int64(c.state) },
		"olearn_examples":     func() int64 { return int64(c.bufferedLocked()) },
		"olearn_baseline_pm":  func() int64 { return c.baselinePM },
		"olearn_canary_pm":    c.canaryPMLocked,
		"olearn_last_version": func() int64 { return int64(c.canaryVer) },
	} {
		reg.Func(name, func() int64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return read()
		})
	}
	return c, nil
}

// AddSample buffers one raw decision window — the readahead.Learner
// hand-off the co-located tuner makes once per decision. Alloc-free: one
// ring slot copy.
//
//kml:hotpath
func (c *Controller) AddSample(raw features.Vector, class int, events uint64) {
	e := example{raw: raw, class: int32(class)}
	c.mu.Lock()
	c.examples.Record(&e)
	c.mu.Unlock()
}

// AddOutcome records one decision's attributed outcome — the
// readahead.Learner hand-off the co-located tuner makes as each
// decision's outcome window closes: the model version that made the
// decision and the cache hit rate (per mille) over that window. An open
// canary counts it only if the canary version made the decision.
// Alloc-free.
//
//kml:hotpath
func (c *Controller) AddOutcome(version uint64, ratePM int64) {
	o := outcomeSample{version: version, ratePM: ratePM}
	c.mu.Lock()
	c.outcomes.Record(&o)
	if c.state == StateCanary {
		c.accountCanaryLocked(version, ratePM)
	}
	c.mu.Unlock()
}

// bufferedLocked is how many retained examples no retrain has consumed.
//
//kml:hotpath
func (c *Controller) bufferedLocked() int {
	n := c.examples.Cursor() - c.consumed
	if limit := uint64(c.examples.Cap()); n > limit {
		n = limit
	}
	return int(n)
}

// PoisonRetrain arranges for retrain cycle seq (1-based) to deploy a
// deliberately mislabeled model: every buffered example is labeled as
// random access, so the deployed network starves whatever scan is
// actually running of readahead. This is the fault-injection hook the
// online smoke test uses to prove the canary rolls a bad model back; it
// has no place on any production path.
func (c *Controller) PoisonRetrain(seq uint64) {
	c.mu.Lock()
	c.poisonSeq = seq
	c.mu.Unlock()
}

// Step advances the controller: feeds completed drift windows to the
// trigger, launches or harvests a background retrain, and judges an open
// canary. Call it periodically — the simulation loop calls it once per
// decision window, through Settle. Step never blocks on training.
func (c *Controller) Step() {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch c.state {
	case StateIdle:
		c.state = StateCollecting
	case StateCommitted, StateRolledBack:
		// Transient terminal states: visible for one Step, then back to
		// collecting under the rebaselined monitor.
		c.state = StateCollecting
	case StateCollecting:
		c.stepCollecting()
	case StateRetraining:
		c.stepRetraining()
	case StateCanary:
		c.stepCanary()
	}
}

// accountCanaryLocked folds one outcome sample into an open canary if it
// was produced by the canary version.
//
//kml:hotpath
func (c *Controller) accountCanaryLocked(version uint64, ratePM int64) {
	if version != c.canaryVer {
		return
	}
	c.canarySum += ratePM
	c.canaryN++
}

// canaryPMLocked is the open or last canary's mean outcome, -1 before
// it has one.
func (c *Controller) canaryPMLocked() int64 {
	if c.canaryN == 0 {
		return -1
	}
	return c.canarySum / int64(c.canaryN)
}

// baselineLocked averages the most recent BaselineWindows outcome
// windows — the pre-deploy reward level a canary is judged against.
// Returns -1 when no outcome has been attributed yet.
func (c *Controller) baselineLocked() int64 {
	w := c.outcomes.Cursor()
	n, _, _ := c.outcomes.ReadNewer(w-min(w, uint64(len(c.outBuf))), c.outBuf)
	if n == 0 {
		return -1
	}
	var sum int64
	for _, o := range c.outBuf[:n] {
		sum += o.ratePM
	}
	return sum / int64(n)
}

// stepCollecting feeds newly completed drift windows to the trigger and
// launches a retrain when it fires with enough unconsumed examples and a
// measured baseline to judge the result against.
func (c *Controller) stepCollecting() {
	r := c.cfg.Drift.Report()
	if r.Windows == c.lastWindows || !r.BaselineReady {
		return
	}
	c.lastWindows = r.Windows
	fired := c.trigger.Observe(int64(r.MaxShift*1000), r.ChurnPM)
	if !fired {
		return
	}
	c.cFires.Inc()
	if c.bufferedLocked() < c.cfg.MinExamples || c.outcomes.Cursor() == 0 {
		// The fire lapses — too few examples, or no attributed outcome
		// to measure a new model against; never deploy unmeasured. The
		// trigger's cooldown applies regardless.
		return
	}
	c.fireShiftMZ, c.fireChurnPM = int64(r.MaxShift*1000), r.ChurnPM
	// One read drains everything retained (scratch holds the ring's
	// capacity); the next cycle trains on what arrives after it.
	n, next, _ := c.examples.ReadNewer(c.consumed, c.scratch)
	c.consumed = next
	c.cRetrains.Inc()
	seq := c.cRetrains.Load()
	poisoned := c.poisonSeq != 0 && seq == c.poisonSeq
	c.pending = &retrainResult{done: make(chan struct{})}
	c.state = StateRetraining
	go c.retrain(c.pending, append([]example(nil), c.scratch[:n]...), seq, poisoned)
}

// retrain is the background training goroutine: label, normalize with
// the frozen normalizer, fit a fresh network, serialize. It never
// touches controller state; it fills res and closes res.done, which
// Step polls and Settle waits on.
func (c *Controller) retrain(res *retrainResult, snap []example, seq uint64, poisoned bool) {
	start := time.Now()
	xs := make([]features.Vector, len(snap))
	ys := make([]int, len(snap))
	for i, e := range snap {
		xs[i] = c.cfg.Norm.Apply(e.raw)
		if poisoned {
			ys[i] = classReadRandom
		} else {
			ys[i] = label(e.raw)
		}
	}
	cfg := c.cfg.Train
	cfg.Seed += int64(seq) // fresh init per cycle, still deterministic
	// TrainModel runs only full minibatches; clamp the batch so a small
	// online snapshot still trains instead of silently fitting nothing.
	batch := cfg.Batch
	if batch == 0 {
		batch = 16
	}
	if batch > len(snap) {
		cfg.Batch = len(snap)
	}
	net := readahead.NewModel(cfg.Seed)
	readahead.TrainModel(net, xs, ys, cfg)
	var buf bytes.Buffer
	res.err = net.Save(&buf)
	res.model = buf.Bytes()
	res.examples = len(snap)
	res.dur = time.Since(start)
	res.poisoned = poisoned
	close(res.done)
}

// stepRetraining harvests a finished background retrain and deploys it,
// opening the canary.
func (c *Controller) stepRetraining() {
	res := c.pending
	select {
	case <-res.done:
	default:
		return // still training; never block
	}
	c.hRetrainNs.Observe(res.dur.Nanoseconds())
	if res.err != nil {
		c.failRetrainLocked(res, fmt.Errorf("serialize: %w", res.err))
		return
	}
	name := fmt.Sprintf("%s-r%d", c.cfg.ModelName, c.cRetrains.Load())
	v, err := c.cfg.Server.Deploy(mserve.KindNN, name, res.model)
	if err != nil {
		c.failRetrainLocked(res, fmt.Errorf("deploy: %w", err))
		return
	}
	if err := c.syncTunerLocked(v.Number); err != nil {
		// The server is serving the new version but the tuner cannot:
		// roll the server back rather than split-brain the two.
		_, _ = c.cfg.Server.Rollback()
		c.failRetrainLocked(res, fmt.Errorf("instantiate v%d: %w", v.Number, err))
		return
	}
	c.cDeploys.Inc()
	c.baselinePM = c.baselineLocked()
	c.canaryVer = v.Number
	c.canarySum, c.canaryN = 0, 0
	c.lastEventIdx = len(c.events)
	c.recordEventLocked(mserve.RetrainEvent{
		TimeNanos:     uint64(time.Now().UnixNano()),
		Version:       v.Number,
		DurationNanos: uint64(res.dur.Nanoseconds()),
		Examples:      uint32(res.examples),
		Outcome:       mserve.RetrainPending,
		BaselinePM:    c.baselinePM,
		CanaryPM:      -1,
		MaxShiftMZ:    c.fireShiftMZ,
		ChurnPM:       c.fireChurnPM,
	})
	c.state = StateCanary
}

// failRetrainLocked records a cycle that produced nothing deployable.
func (c *Controller) failRetrainLocked(res *retrainResult, err error) {
	c.cFailures.Inc()
	c.lastEventIdx = -1
	c.recordEventLocked(mserve.RetrainEvent{
		TimeNanos:     uint64(time.Now().UnixNano()),
		DurationNanos: uint64(res.dur.Nanoseconds()),
		Examples:      uint32(res.examples),
		Outcome:       mserve.RetrainFailed,
		BaselinePM:    c.baselineLocked(),
		CanaryPM:      -1,
		MaxShiftMZ:    c.fireShiftMZ,
		ChurnPM:       c.fireChurnPM,
	})
	c.state = StateCollecting
	_ = err // the event records the failure; callers read counters
}

// stepCanary judges a full canary window: commit within tolerance, roll
// back beyond it.
func (c *Controller) stepCanary() {
	if c.canaryN < c.cfg.CanaryWindows {
		return
	}
	canaryPM := c.canaryPMLocked()
	outcome := uint8(mserve.RetrainCommitted)
	// A canary only opens with a measured baseline (stepCollecting), so
	// the comparison always has both sides.
	if canaryPM < c.baselinePM-c.cfg.TolerancePM {
		if _, err := c.cfg.Server.Rollback(); err == nil {
			_ = c.syncTunerLocked(c.cfg.Server.Deployment().Version())
		}
		c.cRollbacks.Inc()
		outcome = mserve.RetrainRolledBack
		c.state = StateRolledBack
	} else {
		c.cCommits.Inc()
		c.state = StateCommitted
	}
	if c.lastEventIdx >= 0 && c.lastEventIdx < len(c.events) {
		c.events[c.lastEventIdx].Outcome = outcome
		c.events[c.lastEventIdx].CanaryPM = canaryPM
	}
	c.lastEventIdx = -1
	// The canary verdict consumed the drift baseline either way: after a
	// commit the model embodies the new distribution; after a rollback a
	// persistent shift must re-establish itself against fresh statistics
	// (plus the trigger's cooldown) before firing again.
	c.cfg.Drift.Rebaseline()
	c.lastWindows = 0
}

// syncTunerLocked points the co-located tuner's deployment handle at
// version v's freshly instantiated classifier.
func (c *Controller) syncTunerLocked(v uint64) error {
	if c.cfg.TunerDeploy == nil {
		return nil
	}
	art, err := c.cfg.Server.Registry().Artifact(v)
	if err != nil {
		return err
	}
	inst, err := art.Instantiate()
	if err != nil {
		return err
	}
	c.cfg.TunerDeploy.Swap(inst, v)
	return nil
}

// recordEventLocked appends to the retained history.
func (c *Controller) recordEventLocked(e mserve.RetrainEvent) {
	c.events = append(c.events, e)
	if len(c.events) > mserve.MaxRetrainEvents {
		c.events = c.events[len(c.events)-mserve.MaxRetrainEvents:]
	}
}

// State returns the controller's current state.
func (c *Controller) State() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// Status snapshots the controller in MsgLearnStatus form — the function
// kml-served registers via Server.SetLearnSource.
func (c *Controller) Status() mserve.LearnStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	return mserve.LearnStatus{
		State:        uint8(c.state),
		Retrains:     c.cRetrains.Load(),
		Deploys:      c.cDeploys.Load(),
		Rollbacks:    c.cRollbacks.Load(),
		Commits:      c.cCommits.Load(),
		TriggerFires: c.cFires.Load(),
		Examples:     uint64(c.bufferedLocked()),
		LastVersion:  c.canaryVer,
		BaselinePM:   c.baselinePM,
		CanaryPM:     c.canaryPMLocked(),
		Events:       append([]mserve.RetrainEvent(nil), c.events...),
	}
}

// Settle steps the controller and, if that leaves it in StateRetraining
// (the only state whose exit depends on a background goroutine), waits
// up to timeout for the retrain to finish and steps once more to harvest
// it. It reports whether the controller left StateRetraining. The
// simulation driver calls it after each decision window: on the virtual
// clock, real milliseconds spent waiting for the trainer are invisible to
// measured results, so the loop stays deterministic while training stays
// off the decision path.
func (c *Controller) Settle(timeout time.Duration) bool {
	c.Step()
	c.mu.Lock()
	var done chan struct{}
	if c.state == StateRetraining {
		done = c.pending.done
	}
	c.mu.Unlock()
	if done == nil {
		return true
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-done:
	case <-timer.C:
		return false
	}
	c.Step()
	return c.State() != StateRetraining
}
