//go:build !race

package mserve

// raceEnabled reports whether the race detector is active; see
// race_on_test.go.
const raceEnabled = false
