package olearn

import "testing"

// obs is one drift-window observation and the expected trigger answer.
type obs struct {
	shiftMZ int64
	churnPM int64
	fire    bool
}

// TestTriggerTable drives the trigger through scripted window sequences
// and checks it fires exactly when the rule says — at the budget, not
// one milli-Z under it — including sustain, cooldown, and the re-arm
// hysteresis band.
func TestTriggerTable(t *testing.T) {
	cases := []struct {
		name string
		cfg  TriggerConfig
		seq  []obs
	}{
		{
			name: "fires exactly at budget, not below",
			cfg:  TriggerConfig{ShiftBudgetMilliZ: 2000},
			seq: []obs{
				{shiftMZ: 0, fire: false},
				{shiftMZ: 1999, fire: false}, // one under budget: no fire
				{shiftMZ: 2000, fire: true},  // exactly at budget: fire
			},
		},
		{
			name: "sustain requires consecutive over-budget windows",
			cfg:  TriggerConfig{ShiftBudgetMilliZ: 1000, Sustain: 3},
			seq: []obs{
				{shiftMZ: 1500, fire: false}, // 1 of 3
				{shiftMZ: 1500, fire: false}, // 2 of 3
				{shiftMZ: 900, fire: false},  // dip resets the run
				{shiftMZ: 1500, fire: false}, // 1 of 3
				{shiftMZ: 1500, fire: false}, // 2 of 3
				{shiftMZ: 1500, fire: true},  // 3 of 3
			},
		},
		{
			name: "cooldown blocks re-fire even after recovery",
			cfg:  TriggerConfig{ShiftBudgetMilliZ: 1000, Cooldown: 3},
			seq: []obs{
				{shiftMZ: 1200, fire: true},
				{shiftMZ: 100, fire: false},  // below re-arm but window 1 < cooldown
				{shiftMZ: 100, fire: false},  // window 2 < cooldown
				{shiftMZ: 2000, fire: false}, // window 3: re-arm check fails (over budget)
				{shiftMZ: 100, fire: false},  // window 4: re-arms (quiet + past cooldown)
				{shiftMZ: 1000, fire: true},  // armed again: fires at budget
			},
		},
		{
			name: "hysteresis: budget-epsilon after a fire never re-arms",
			cfg:  TriggerConfig{ShiftBudgetMilliZ: 1000, Cooldown: 1},
			seq: []obs{
				{shiftMZ: 1000, fire: true},
				// 999 is over the 80% re-arm level (800), so the trigger
				// stays disarmed no matter how long this persists.
				{shiftMZ: 999, fire: false},
				{shiftMZ: 999, fire: false},
				{shiftMZ: 999, fire: false},
				{shiftMZ: 800, fire: false}, // still AT the re-arm level: no
				{shiftMZ: 799, fire: false}, // below it: re-arms...
				{shiftMZ: 1500, fire: true}, // ...and fires on fresh drift
			},
		},
		{
			name: "churn signal fires independently of shift",
			cfg:  TriggerConfig{ShiftBudgetMilliZ: 2000, ChurnBudgetPM: 300},
			seq: []obs{
				{shiftMZ: 100, churnPM: 299, fire: false},
				{shiftMZ: 100, churnPM: 300, fire: true}, // churn at budget
			},
		},
		{
			name: "zero config inherits dtrace default budget",
			cfg:  TriggerConfig{},
			seq: []obs{
				{shiftMZ: 1999, fire: false},
				{shiftMZ: 2000, fire: true},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := NewTrigger(tc.cfg)
			if !tr.armed {
				t.Fatal("new trigger is not armed")
			}
			for i, o := range tc.seq {
				got := tr.Observe(o.shiftMZ, o.churnPM)
				if got != o.fire {
					t.Fatalf("window %d (shift=%d churn=%d): fire=%v, want %v",
						i, o.shiftMZ, o.churnPM, got, o.fire)
				}
			}
		})
	}
}

// TestTriggerChurnBlocksRearm pins the asymmetric re-arm rule: after a
// churn-driven fire, a quiet shift alone must not re-arm while churn
// stays inside the hysteresis band.
func TestTriggerChurnBlocksRearm(t *testing.T) {
	tr := NewTrigger(TriggerConfig{ShiftBudgetMilliZ: 1000, ChurnBudgetPM: 500, Cooldown: 1})
	if !tr.Observe(0, 500) {
		t.Fatal("churn at budget did not fire")
	}
	// Shift is silent, churn sits at 80% of budget (the re-arm level):
	// the trigger must stay disarmed.
	for i := 0; i < 5; i++ {
		if tr.Observe(0, 400) {
			t.Fatalf("window %d fired while disarmed", i)
		}
		if tr.armed {
			t.Fatalf("window %d re-armed with churn at the re-arm level", i)
		}
	}
	if tr.Observe(0, 399) { // drops below: re-arms, no fire yet
		t.Fatal("re-arm window fired")
	}
	if !tr.armed {
		t.Fatal("trigger did not re-arm after churn recovered")
	}
	if !tr.Observe(0, 500) {
		t.Fatal("re-armed trigger did not fire on fresh churn")
	}
}

// TestTriggerFireCountAndSignal checks that one over-budget signal is
// one fire: the controller counts olearn_trigger_fires from Observe's
// answers, so a disarmed trigger must not answer true again.
func TestTriggerFireCountAndSignal(t *testing.T) {
	tr := NewTrigger(TriggerConfig{ShiftBudgetMilliZ: 100, Cooldown: 1})
	if !tr.Observe(250, 7) {
		t.Fatal("an over-budget signal did not fire an armed trigger")
	}
	if tr.Observe(250, 7) {
		t.Fatal("a disarmed trigger fired again on the same signal")
	}
}
