// Snapshot-time distribution math for Histogram. This file is
// deliberately NOT kernelspace: quantile estimation uses floating
// point and runs only when an operator (or the exposition layer) asks
// for a snapshot — never on the observation path.
package telemetry

// HistogramSnapshot is a point-in-time copy of a Histogram. Count is
// derived from the bucket copies, so a snapshot is always internally
// consistent (Count == Σ Buckets) even while observations continue.
type HistogramSnapshot struct {
	Count   uint64
	Sum     uint64
	Buckets [NumBuckets]uint64
}

// Snapshot copies the histogram's state. Buckets are loaded atomically
// one at a time; observations racing with the snapshot land wholly in
// or wholly out of it.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	s.Sum = h.sum.Load()
	for i := range h.buckets {
		c := h.buckets[i].Load()
		s.Buckets[i] = c
		s.Count += c
	}
	return s
}

// Quantile estimates the q-quantile (q in [0, 1]) in nanoseconds by
// locating the bucket holding the target rank and interpolating
// linearly inside it. An empty snapshot returns 0. The estimate is
// always within the true value's bucket, i.e. off by at most a factor
// of two — the precision the log₂ shape buys with 64 words of state.
func (s *HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if s.Count == 1 {
		// One observation: Sum is that observation, exactly — better
		// than interpolating to the middle of its (2×-wide) bucket.
		return int64(s.Sum)
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Target rank in [1, Count].
	rank := uint64(q * float64(s.Count))
	if float64(rank) < q*float64(s.Count) {
		rank++ // ceil
	}
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum uint64
	for i, bc := range s.Buckets {
		if bc == 0 {
			continue
		}
		if cum+bc >= rank {
			lo, hi := BucketLower(i), BucketUpper(i)
			frac := float64(rank-cum) / float64(bc)
			return lo + int64(frac*float64(hi-lo))
		}
		cum += bc
	}
	return BucketUpper(NumBuckets - 1) // unreachable: rank <= Count
}
