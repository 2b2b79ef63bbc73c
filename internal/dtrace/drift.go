// Drift detection: is the live workload still the population the model
// was trained on? Following the KML follow-up work, the leading
// indicator is the normalization statistics — the deployed normalizer
// freezes training-time means and standard deviations, so the
// standardized shift of the live feature means against those frozen
// stats is a direct staleness signal:
//
//	shift_i = (mean_window(x_i) - mean_train(x_i)) / std_train(x_i)
//
// i.e. a Z-score of the live window's mean under the training
// distribution. |shift| ~ 0-1 is the training regime; sustained |shift|
// above the threshold (default 2.0) means feature i has left the
// population and predictions are extrapolations. Alongside population
// shift, the monitor tracks prediction churn (how often consecutive
// decisions change class — a thrashing tuner) and the class
// distribution (a collapsed or flipped mix is drift even when features
// look tame). Userspace: floats are fine here — observation happens
// once per decision window and evaluation once per WindowSize
// decisions, never on the event path.
package dtrace

import (
	"fmt"
	"sync"

	"repro/internal/stats"
	"repro/internal/telemetry"
)

// DefaultDriftWindow is the evaluation window (decisions per drift
// report) when DriftConfig.Window is zero.
const DefaultDriftWindow = 64

// DefaultShiftThresholdMilli flags drift at |shift| >= 2.0 when
// DriftConfig.ThresholdMilliZ is zero.
const DefaultShiftThresholdMilli = 2000

// maxShiftZ clamps reported shifts so a zero-variance training feature
// cannot produce unbounded gauges.
const maxShiftZ = 100.0

// DriftConfig sizes a DriftMonitor.
type DriftConfig struct {
	// Features is the observed feature-vector width. Required.
	Features int
	// Classes is the number of prediction classes. Required.
	Classes int
	// Window is decisions per evaluation window (0 = DefaultDriftWindow).
	Window int
	// TrainMeans/TrainStds are the training-time normalization stats,
	// one per feature. When nil the monitor self-baselines: the first
	// completed window is fitted and becomes the reference population,
	// so drift is then measured against "how the workload looked when
	// this model was deployed" instead of training time.
	TrainMeans []float64
	TrainStds  []float64
	// ThresholdMilliZ flags drift when the max absolute feature shift
	// reaches this many milli-Z (0 = DefaultShiftThresholdMilli).
	ThresholdMilliZ int64
}

// DriftReport is one evaluation of model staleness, covering the most
// recently completed window.
type DriftReport struct {
	// Decisions and Windows are cumulative totals.
	Decisions uint64
	Windows   uint64
	// BaselineReady is false until training stats are installed or the
	// first window has been fitted; shifts are zero until then.
	BaselineReady bool
	// Shift is the per-feature standardized population shift (Z units).
	Shift []float64
	// MaxShift is the largest |Shift| and MaxShiftFeature its index.
	MaxShift        float64
	MaxShiftFeature int
	// ChurnPM is how many of the window's decisions changed class vs.
	// the previous decision, per mille.
	ChurnPM int64
	// ClassSharePM is the window's class distribution, per mille.
	ClassSharePM []int64
	// Drifted is MaxShift >= threshold.
	Drifted bool
}

// DriftMonitor accumulates per-decision observations and evaluates them
// every Window decisions. Safe for concurrent use.
type DriftMonitor struct {
	mu        sync.Mutex
	window    uint64
	threshold int64
	features  int
	classes   int

	baseMean, baseStd []float64
	baseReady         bool
	fit               []stats.Running // first-window baseline fit (no train stats)

	winSum   []float64
	winClass []uint64
	winN     uint64
	churn    uint64
	lastCls  int
	haveCls  bool

	decisions uint64
	windows   uint64

	// Published state of the last completed window.
	pub DriftReport

	// Optional gauges, set by RegisterMetrics.
	gShift   []*telemetry.Gauge
	gShare   []*telemetry.Gauge
	gMax     *telemetry.Gauge
	gChurn   *telemetry.Gauge
	gWindows *telemetry.Gauge
	gDrifted *telemetry.Gauge
}

// NewDriftMonitor returns a monitor for the given shape. It panics on a
// non-positive feature or class count, or on training stats of the
// wrong length — wiring errors, not runtime conditions.
func NewDriftMonitor(cfg DriftConfig) *DriftMonitor {
	if cfg.Features <= 0 || cfg.Classes <= 0 {
		panic("dtrace: drift monitor needs positive feature and class counts")
	}
	if (cfg.TrainMeans == nil) != (cfg.TrainStds == nil) {
		panic("dtrace: drift monitor needs both training means and stds, or neither")
	}
	if cfg.TrainMeans != nil && (len(cfg.TrainMeans) != cfg.Features || len(cfg.TrainStds) != cfg.Features) {
		panic("dtrace: drift training stats length mismatch")
	}
	m := &DriftMonitor{
		window:    DefaultDriftWindow,
		threshold: DefaultShiftThresholdMilli,
		features:  cfg.Features,
		classes:   cfg.Classes,
		winSum:    make([]float64, cfg.Features),
		winClass:  make([]uint64, cfg.Classes),
	}
	if cfg.Window > 0 {
		m.window = uint64(cfg.Window)
	}
	if cfg.ThresholdMilliZ > 0 {
		m.threshold = cfg.ThresholdMilliZ
	}
	if cfg.TrainMeans != nil {
		m.baseMean = append([]float64(nil), cfg.TrainMeans...)
		m.baseStd = append([]float64(nil), cfg.TrainStds...)
		m.baseReady = true
	} else {
		m.fit = make([]stats.Running, cfg.Features)
	}
	m.pub.Shift = make([]float64, cfg.Features)
	m.pub.ClassSharePM = make([]int64, cfg.Classes)
	return m
}

// Observe records one decision: the RAW (pre-normalization) selected
// feature vector and the predicted class. feats may be shorter than the
// configured width (extra monitor features stay at zero); extra feats
// are ignored. Does not allocate.
func (m *DriftMonitor) Observe(feats []float64, class int) {
	classes := [1]int{class}
	m.mu.Lock()
	m.observeLocked(feats, len(feats), classes[:])
	m.mu.Unlock()
}

// ObserveBatch records rows decisions in one lock acquisition: feats is
// row-major rows×nfeat, classes holds one prediction per row. Used by
// the batched serving path. Does not allocate.
//
// It accounts the batch in chunks cut at window boundaries, so each chunk
// rolls the window at exactly the row where a run of Observe calls would,
// and leaves the monitor exactly as that run would: every per-feature sum
// and baseline fit takes its rows in row order.
func (m *DriftMonitor) ObserveBatch(feats []float64, rows, nfeat int, classes []int) {
	if rows <= 0 || nfeat <= 0 || len(classes) < rows {
		return
	}
	m.mu.Lock()
	for r := 0; r < rows; {
		k := min(rows-r, int(m.window-m.winN))
		m.observeLocked(feats[r*nfeat:(r+k)*nfeat], nfeat, classes[r:r+k])
		r += k
	}
	m.mu.Unlock()
}

// observeLocked accounts len(classes) decisions whose features are the
// rows of feats, nfeat wide, and which complete the window at most at
// their last row. Each feature's sum runs down its column in a register;
// churn and the class counts take one straight-line pass, with no branch
// on whether a decision changed class.
func (m *DriftMonitor) observeLocked(feats []float64, nfeat int, classes []int) {
	n := min(nfeat, m.features)
	for i := 0; i < n; i++ {
		sum := m.winSum[i]
		for r := i; r < len(feats); r += nfeat {
			sum += feats[r]
		}
		m.winSum[i] = sum
		if !m.baseReady {
			fit := &m.fit[i]
			for r := i; r < len(feats); r += nfeat {
				fit.Add(feats[r])
			}
		}
	}
	last, churn := m.lastCls, uint64(0)
	if !m.haveCls {
		last = classes[0] // the first decision ever changes nothing
	}
	counts := m.winClass
	for _, c := range classes {
		changed := uint64(0)
		if c != last {
			changed = 1
		}
		churn += changed
		last = c
		if uint(c) < uint(len(counts)) {
			counts[c]++
		}
	}
	m.lastCls, m.haveCls = last, true
	m.churn += churn
	m.decisions += uint64(len(classes))
	m.winN += uint64(len(classes))
	if m.winN >= m.window {
		m.rollLocked()
	}
}

// rollLocked completes a window: fits the baseline if still pending,
// publishes shift/churn/distribution, updates gauges, resets the window.
func (m *DriftMonitor) rollLocked() {
	if !m.baseReady {
		m.baseMean = make([]float64, m.features)
		m.baseStd = make([]float64, m.features)
		for i := range m.fit {
			m.baseMean[i] = m.fit[i].Mean()
			m.baseStd[i] = m.fit[i].StdDev()
		}
		m.fit = nil
		m.baseReady = true
	}
	m.windows++
	m.pub.Windows = m.windows
	m.pub.Decisions = m.decisions
	m.pub.BaselineReady = true
	m.pub.MaxShift, m.pub.MaxShiftFeature = 0, 0
	for i := 0; i < m.features; i++ {
		mean := m.winSum[i] / float64(m.winN)
		m.pub.Shift[i] = shiftZ(mean, m.baseMean[i], m.baseStd[i])
		if a := abs(m.pub.Shift[i]); a > m.pub.MaxShift {
			m.pub.MaxShift, m.pub.MaxShiftFeature = a, i
		}
	}
	m.pub.ChurnPM = int64(m.churn * 1000 / m.winN)
	for c := 0; c < m.classes; c++ {
		m.pub.ClassSharePM[c] = int64(m.winClass[c] * 1000 / m.winN)
	}
	m.pub.Drifted = int64(m.pub.MaxShift*1000) >= m.threshold
	m.publishGaugesLocked()

	for i := range m.winSum {
		m.winSum[i] = 0
	}
	for c := range m.winClass {
		m.winClass[c] = 0
	}
	m.winN, m.churn = 0, 0
}

// shiftZ standardizes mean-baseMean by baseStd, clamped to ±maxShiftZ.
// A degenerate (≈0) training std makes any movement saturate: a feature
// that never varied in training has no business varying now.
func shiftZ(mean, baseMean, baseStd float64) float64 {
	d := mean - baseMean
	if baseStd <= 1e-12 {
		switch {
		case d > 1e-12:
			return maxShiftZ
		case d < -1e-12:
			return -maxShiftZ
		default:
			return 0
		}
	}
	z := d / baseStd
	if z > maxShiftZ {
		return maxShiftZ
	}
	if z < -maxShiftZ {
		return -maxShiftZ
	}
	return z
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func (m *DriftMonitor) publishGaugesLocked() {
	if m.gMax == nil {
		return
	}
	for i, g := range m.gShift {
		g.Set(int64(m.pub.Shift[i] * 1000))
	}
	for c, g := range m.gShare {
		g.Set(m.pub.ClassSharePM[c])
	}
	m.gMax.Set(int64(m.pub.MaxShift * 1000))
	m.gChurn.Set(m.pub.ChurnPM)
	m.gWindows.Set(int64(m.windows))
	if m.pub.Drifted {
		m.gDrifted.Set(1)
	} else {
		m.gDrifted.Set(0)
	}
}

// RegisterMetrics exposes the monitor under prefix: per-feature
// `<prefix>_shift_mz_<i>` (milli-Z), `<prefix>_max_shift_mz`,
// `<prefix>_churn_pm`, per-class `<prefix>_class_share_pm_<c>`,
// `<prefix>_windows`, `<prefix>_drifted` (0/1), and a snapshot-time
// `<prefix>_decisions`. Gauges update at window completion.
func (m *DriftMonitor) RegisterMetrics(reg *telemetry.Registry, prefix string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.gShift = make([]*telemetry.Gauge, m.features)
	for i := range m.gShift {
		m.gShift[i] = reg.Gauge(fmt.Sprintf("%s_shift_mz_%d", prefix, i))
	}
	m.gShare = make([]*telemetry.Gauge, m.classes)
	for c := range m.gShare {
		m.gShare[c] = reg.Gauge(fmt.Sprintf("%s_class_share_pm_%d", prefix, c))
	}
	m.gMax = reg.Gauge(prefix + "_max_shift_mz")
	m.gChurn = reg.Gauge(prefix + "_churn_pm")
	m.gWindows = reg.Gauge(prefix + "_windows")
	m.gDrifted = reg.Gauge(prefix + "_drifted")
	reg.Func(prefix+"_decisions", func() int64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return int64(m.decisions)
	})
}

// Rebaseline discards the monitor's reference population and refits it
// on the next completed window, exactly as a freshly self-baselined
// monitor would. The online-learning controller calls this after a
// committed retrain (the model now embodies the shifted distribution, so
// continuing to measure against the stale baseline would hold the drift
// signal high forever and either thrash retraining or wedge the
// trigger's hysteresis) and after a rollback (so a persistent shift has
// to re-establish itself against fresh statistics before firing again).
// The in-progress window is restarted; published gauges keep the last
// completed window's values until the refit window rolls, except Drifted
// which clears immediately — the old verdict is void once its baseline
// is gone.
func (m *DriftMonitor) Rebaseline() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.baseReady = false
	m.baseMean, m.baseStd = nil, nil
	m.fit = make([]stats.Running, m.features)
	for i := range m.winSum {
		m.winSum[i] = 0
	}
	for c := range m.winClass {
		m.winClass[c] = 0
	}
	m.winN, m.churn = 0, 0
	m.haveCls = false
	m.pub.Drifted = false
	m.pub.BaselineReady = false
	if m.gDrifted != nil {
		m.gDrifted.Set(0)
	}
}

// Report returns the last completed window's evaluation (copied), with
// live cumulative counters.
func (m *DriftMonitor) Report() DriftReport {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := m.pub
	r.Decisions = m.decisions
	r.Windows = m.windows
	r.BaselineReady = m.baseReady
	r.Shift = append([]float64(nil), m.pub.Shift...)
	r.ClassSharePM = append([]int64(nil), m.pub.ClassSharePM...)
	return r
}
