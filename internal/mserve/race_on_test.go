//go:build race

package mserve

// raceEnabled reports whether the race detector is active.
// TestServedBatchOverheadBudget skips under it: the detector instruments
// the drift accounting's Go loops but not the assembly kernels the
// prediction spends its time in, so the ratio would measure the detector.
const raceEnabled = true
