package telemetry

import (
	"math"
	"testing"
)

// TestBucketBoundaries pins the log₂ bucket shape on exact edges: 0 is
// alone in bucket 0, each power of two opens a new bucket, and 2^i - 1
// closes bucket i.
func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		v      int64
		bucket int
	}{
		{0, 0},
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 3},
		{7, 3},
		{8, 4},
		{1023, 10},
		{1024, 11},
		{1025, 11},
		{1<<62 - 1, 62},
		{1 << 62, 63},
		{math.MaxInt64, 63}, // overflow bucket
	}
	for _, c := range cases {
		var h Histogram
		h.Observe(c.v)
		s := h.Snapshot()
		if s.Count != 1 {
			t.Fatalf("Observe(%d): count %d", c.v, s.Count)
		}
		for i, bc := range s.Buckets {
			want := uint64(0)
			if i == c.bucket {
				want = 1
			}
			if bc != want {
				t.Errorf("Observe(%d): bucket[%d] = %d, want %d", c.v, i, bc, want)
			}
		}
		if lo, hi := BucketLower(c.bucket), BucketUpper(c.bucket); c.v < lo || c.v > hi {
			t.Errorf("value %d outside its bucket bounds [%d, %d]", c.v, lo, hi)
		}
	}
}

func TestBucketBoundsAreContiguous(t *testing.T) {
	for i := 1; i < NumBuckets; i++ {
		if BucketLower(i) != BucketUpper(i-1)+1 {
			t.Errorf("gap between bucket %d upper %d and bucket %d lower %d",
				i-1, BucketUpper(i-1), i, BucketLower(i))
		}
	}
	if BucketUpper(NumBuckets-1) != math.MaxInt64 {
		t.Errorf("overflow bucket upper = %d, want MaxInt64", BucketUpper(NumBuckets-1))
	}
}

func TestNegativeObservationsClampToZero(t *testing.T) {
	var h Histogram
	h.Observe(-5)
	s := h.Snapshot()
	if s.Buckets[0] != 1 || s.Sum != 0 {
		t.Fatalf("Observe(-5): buckets[0]=%d sum=%d, want 1, 0", s.Buckets[0], s.Sum)
	}
}

func TestEmptySnapshot(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Count != 0 || s.Sum != 0 {
		t.Fatalf("empty snapshot: %+v", s)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := s.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%v) = %d, want 0", q, got)
		}
	}
}

// TestQuantileSingleBucket: with every observation in one bucket, the
// interpolated estimate must stay inside that bucket's bounds and reach
// the upper bound at q=1.
func TestQuantileSingleBucket(t *testing.T) {
	var h Histogram
	for i := 0; i < 1000; i++ {
		h.Observe(100) // bucket 7: [64, 127]
	}
	s := h.Snapshot()
	for _, q := range []float64{0.01, 0.5, 0.95, 0.99} {
		got := s.Quantile(q)
		if got < 64 || got > 127 {
			t.Errorf("Quantile(%v) = %d, outside bucket [64, 127]", q, got)
		}
	}
	if got := s.Quantile(1); got != 127 {
		t.Errorf("Quantile(1) = %d, want bucket upper 127", got)
	}
	if s.Count != 1000 || s.Sum != 100_000 {
		t.Errorf("Count/Sum = %d/%d, want 1000/100000", s.Count, s.Sum)
	}
}

// TestQuantileSplitDistribution: 90 observations at ~1µs and 10 at
// ~1ms; p50 must land in the fast bucket and p99 in the slow one.
func TestQuantileSplitDistribution(t *testing.T) {
	var h Histogram
	for i := 0; i < 90; i++ {
		h.Observe(1000) // bucket 10: [512, 1023]
	}
	for i := 0; i < 10; i++ {
		h.Observe(1_000_000) // bucket 20: [524288, 1048575]
	}
	s := h.Snapshot()
	if got := s.Quantile(0.5); got < 512 || got > 1023 {
		t.Errorf("p50 = %d, want within [512, 1023]", got)
	}
	if got := s.Quantile(0.99); got < 524288 || got > 1048575 {
		t.Errorf("p99 = %d, want within [524288, 1048575]", got)
	}
	// Quantiles are monotone in q.
	prev := int64(-1)
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		got := s.Quantile(q)
		if got < prev {
			t.Errorf("Quantile(%v) = %d < previous %d", q, got, prev)
		}
		prev = got
	}
}

// TestQuantileSingleObservation: one observation must come back exactly
// — Sum IS the observation, so no bucket interpolation error is excused.
func TestQuantileSingleObservation(t *testing.T) {
	for _, v := range []int64{0, 1, 100, 999, 1 << 40} {
		var h Histogram
		h.Observe(v)
		s := h.Snapshot()
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			if got := s.Quantile(q); got != v {
				t.Errorf("single observation %d: Quantile(%v) = %d", v, q, got)
			}
		}
	}
}

func TestQuantileClampsRange(t *testing.T) {
	var h Histogram
	h.Observe(10)
	s := h.Snapshot()
	if s.Quantile(-1) != s.Quantile(0) {
		t.Error("Quantile(-1) != Quantile(0)")
	}
	if s.Quantile(2) != s.Quantile(1) {
		t.Error("Quantile(2) != Quantile(1)")
	}
}

func TestSnapshotCountIsDerivedFromBuckets(t *testing.T) {
	var h Histogram
	for i := int64(0); i < 100; i++ {
		h.Observe(i)
	}
	s := h.Snapshot()
	var sum uint64
	for _, bc := range s.Buckets {
		sum += bc
	}
	if s.Count != sum || s.Count != 100 {
		t.Fatalf("Count = %d, Σbuckets = %d, want 100", s.Count, sum)
	}
	if n := h.Snapshot().Count; n != 100 {
		t.Fatalf("second snapshot Count = %d, want 100", n)
	}
}
