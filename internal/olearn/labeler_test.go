package olearn

import (
	"testing"

	"repro/internal/features"
)

// TestLabelerAgreesWithOracle runs the four training workloads through
// the real simulated stack (the same collection path offline training
// uses) and checks the heuristic online labeler recovers the workload
// oracle's class on the overwhelming majority of windows. Retraining
// quality is bounded by this agreement, so it is pinned per class, not
// just in aggregate.
func TestLabelerAgreesWithOracle(t *testing.T) {
	raw, labels, _ := dataset(t)
	if len(raw) == 0 {
		t.Fatal("no windows collected")
	}
	perClassTotal := map[int]int{}
	perClassAgree := map[int]int{}
	for i, v := range raw {
		perClassTotal[labels[i]]++
		if label(v) == labels[i] {
			perClassAgree[labels[i]]++
		}
	}
	for class, total := range perClassTotal {
		agree := perClassAgree[class]
		frac := float64(agree) / float64(total)
		t.Logf("class %d: %d/%d windows agree (%.0f%%)", class, agree, total, 100*frac)
		if frac < 0.9 {
			t.Errorf("class %d: labeler agrees on only %d/%d windows", class, agree, total)
		}
	}
	if len(perClassTotal) != 4 {
		t.Fatalf("oracle produced %d classes, want 4", len(perClassTotal))
	}
}

// TestLabelerThresholds pins the decision boundaries of the heuristic
// labeler on synthetic vectors.
func TestLabelerThresholds(t *testing.T) {
	mk := func(sign, writeFrac, mad float64) features.Vector {
		var v features.Vector
		v[features.FeatDeltaSign] = sign
		v[features.FeatWriteFrac] = writeFrac
		v[features.FeatMeanAbsDelta] = mad
		return v
	}
	cases := []struct {
		sign, wf, mad float64
		want          int
	}{
		{0.9, 0, 2, classReadSeq},
		{0.51, 0, 2, classReadSeq},
		{0.5, 0, 2, classReadRandom}, // at the sign boundary: not a scan
		{0, 0, 200, classReadRandom},
		{-0.5, 0, 2, classReadRandom},
		{-0.51, 0, 2, classReadReverse},
		{-1, 0, 2, classReadReverse},
		{0.9, 0.16, 2, classReadWrite}, // write fraction dominates direction
		{0, 0.5, 0.5, classReadWrite},
		{0, 0.15, 200, classReadRandom}, // at the boundary: still a pure read
		// Readahead-polluted random traffic: ascending fill pages push the
		// sign scan-ward, but the jump magnitude gives it away.
		{0.8, 0, 43, classReadRandom},
		{0.9, 0, 16, classReadSeq}, // at the jump boundary: trust the sign
	}
	for _, tc := range cases {
		if got := label(mk(tc.sign, tc.wf, tc.mad)); got != tc.want {
			t.Errorf("label(sign=%v, writeFrac=%v, mad=%v) = %d, want %d", tc.sign, tc.wf, tc.mad, got, tc.want)
		}
	}
}
