// The drift→retrain trigger: a pure, separately testable decision rule
// over completed drift windows. The controller feeds it one observation
// per DriftMonitor window (max feature shift in milli-Z, prediction
// churn per-mille) and it answers "retrain now?" with hysteresis, so a
// signal oscillating around the budget cannot thrash retraining:
//
//   - FIRE when the signal has been at or over budget for Sustain
//     consecutive windows while armed;
//   - after firing, DISARM: no further fires until the trigger re-arms;
//   - RE-ARM only after Cooldown windows have passed since the fire AND
//     the signal has dropped below the re-arm level (RearmMilliFrac of
//     the budget, default 80%).
//
// The asymmetric fire/re-arm thresholds are the hysteresis: at the
// boundary, a window at budget-ε after a fire keeps the trigger disarmed
// (it never dips under the re-arm level), while a genuine recovery
// followed by a fresh shift fires again. The controller pairs this with
// DriftMonitor.Rebaseline after each cycle, so "recovery" is measured
// against the distribution the retrained model actually serves.
package olearn

// TriggerConfig parameterizes the trigger. The zero value inherits the
// drift monitor's default shift threshold, ignores churn, fires on a
// single over-budget window, and re-arms after 2 windows below 80% of
// budget.
type TriggerConfig struct {
	// ShiftBudgetMilliZ fires when the window's max feature shift
	// reaches this many milli-Z; 0 means dtrace's default (2000 = 2.0z).
	ShiftBudgetMilliZ int64
	// ChurnBudgetPM fires when prediction churn reaches this per-mille;
	// 0 disables the churn signal.
	ChurnBudgetPM int64
	// Sustain is how many consecutive over-budget windows are required
	// to fire; 0 means 1.
	Sustain int
	// Cooldown is the minimum number of windows after a fire before the
	// trigger may re-arm; 0 means 2.
	Cooldown int
	// RearmMilliFrac sets the re-arm level as a per-mille fraction of
	// each budget; 0 means 800 (signal must drop below 80% of budget).
	RearmMilliFrac int64
}

// defaultShiftBudgetMilliZ mirrors dtrace.DefaultShiftThresholdMilli
// without importing dtrace into this float-free file.
const defaultShiftBudgetMilliZ = 2000

func (c TriggerConfig) withDefaults() TriggerConfig {
	if c.ShiftBudgetMilliZ == 0 {
		c.ShiftBudgetMilliZ = defaultShiftBudgetMilliZ
	}
	if c.Sustain == 0 {
		c.Sustain = 1
	}
	if c.Cooldown == 0 {
		c.Cooldown = 2
	}
	if c.RearmMilliFrac == 0 {
		c.RearmMilliFrac = 800
	}
	return c
}

// Trigger is the hysteresis state machine. Not safe for concurrent use;
// the controller serializes access under its own lock.
type Trigger struct {
	cfg       TriggerConfig
	armed     bool
	over      int // consecutive over-budget windows while armed
	sinceFire int // windows observed since the last fire
}

// NewTrigger returns an armed trigger.
func NewTrigger(cfg TriggerConfig) *Trigger {
	return &Trigger{cfg: cfg.withDefaults(), armed: true}
}

// Observe feeds one completed drift window and reports whether the
// trigger fires on it.
func (t *Trigger) Observe(shiftMilliZ, churnPM int64) bool {
	if !t.armed {
		t.sinceFire++
		if t.sinceFire >= t.cfg.Cooldown && t.belowRearm(shiftMilliZ, churnPM) {
			t.armed = true
			t.over = 0
		}
		return false
	}
	if t.overBudget(shiftMilliZ, churnPM) {
		t.over++
	} else {
		t.over = 0
	}
	if t.over >= t.cfg.Sustain {
		t.armed = false
		t.over = 0
		t.sinceFire = 0
		return true
	}
	return false
}

func (t *Trigger) overBudget(shiftMilliZ, churnPM int64) bool {
	if shiftMilliZ >= t.cfg.ShiftBudgetMilliZ {
		return true
	}
	return t.cfg.ChurnBudgetPM > 0 && churnPM >= t.cfg.ChurnBudgetPM
}

// belowRearm requires EVERY enabled signal under its re-arm level: a
// quiet shift cannot re-arm the trigger while churn still rages.
func (t *Trigger) belowRearm(shiftMilliZ, churnPM int64) bool {
	if shiftMilliZ >= t.cfg.ShiftBudgetMilliZ*t.cfg.RearmMilliFrac/1000 {
		return false
	}
	if t.cfg.ChurnBudgetPM > 0 && churnPM >= t.cfg.ChurnBudgetPM*t.cfg.RearmMilliFrac/1000 {
		return false
	}
	return true
}
