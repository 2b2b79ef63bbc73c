// Package features implements the readahead model's data pre-processing
// and feature extraction (§4 of the paper): tracepoint records are
// aggregated over one-second windows into candidate statistics, which are
// Z-score normalized with parameters fitted on the training set, and a
// selected subset feeds the classifier.
//
// The paper tried eight candidate features and kept the five with the most
// predictive accuracy, confirmed by Pearson correlation analysis. This
// reproduction runs the same selection process over its own candidate set
// (the paper's statistics plus two cheap additions) and arrives at four
// model inputs:
//
//	(i)   the mean |Δoffset| between consecutive
//	      tracepoints                               [paper feature (iv)]
//	(ii)  the mean sign of consecutive Δoffsets     [ours]
//	(iii) the fraction of writeback_dirty_page
//	      events in the window                      [ours]
//	(iv)  the current readahead value               [paper feature (v)]
//
// Three of the paper's five are computed and reported but NOT selected,
// because on the simulated tracepoint stream they hurt rather than help:
// the moving average and standard deviation of page offsets (paper (ii),
// (iii)) are nearly constant across workload classes — every workload's
// window averages out near the middle of the table file — so they carry no
// signal yet explode the Z-scores of never-seen workloads; and the
// tracepoint count (paper (i)) measures device throughput, which breaks
// the NVMe→SSD model transfer the paper demonstrates. The sign statistic
// replaces the scan-direction information the paper's
// cumulative-from-module-start statistics carried implicitly (per-window
// signed deltas telescope to ~0 over wrapping scans); the writeback
// fraction uses the second tracepoint the paper already collects. All
// selected features are bounded and scale-free. See DESIGN.md.
package features

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/stats"
	"repro/internal/wire"
)

// NumCandidates is the number of window statistics computed; Vector holds
// all of them so the Pearson analysis can rank the full candidate set.
const NumCandidates = 7

// Count is the model input dimension: the selected features.
const Count = 4

// Candidate indices into a Vector.
const (
	FeatEventCount = iota
	FeatOffsetMean
	FeatOffsetStdDev
	FeatMeanAbsDelta
	FeatDeltaSign
	FeatWriteFrac
	FeatReadahead
)

// Selected lists the candidate indices that feed the model, in input
// order. The tracepoint count — the paper's feature (i) — is computed and
// reported but not selected: it measures device throughput, so a model
// trained on NVMe event rates misreads the much lower SSD rates (the
// cross-device deployment the paper performs). The four selected features
// are scale-free, which is what lets the NVMe-trained model transfer.
var Selected = [Count]int{FeatMeanAbsDelta, FeatDeltaSign, FeatWriteFrac, FeatReadahead}

// Names returns the candidate names in index order.
func Names() [NumCandidates]string {
	return [NumCandidates]string{
		"tracepoint_count",
		"offset_moving_avg",
		"offset_moving_stddev",
		"offset_mean_abs_delta",
		"offset_delta_sign",
		"writeback_fraction",
		"current_readahead",
	}
}

// Record is one collected tracepoint sample: the fields the paper's
// data-collection hooks record (inode, page offset, time since module
// start) plus which tracepoint fired. It is small enough for lock-free
// ring slots.
type Record struct {
	Inode  uint64
	Offset int64
	Time   time.Duration
	Write  bool // true for writeback_dirty_page events
}

// Vector holds one window's candidate statistics (raw or normalized).
type Vector [NumCandidates]float64

// Extractor folds records into window statistics. The caller decides the
// window boundaries (the readahead application emits once per second).
type Extractor struct {
	count    uint64
	writes   uint64
	offsets  stats.Running
	absSum   float64
	signSum  float64
	deltaN   uint64
	lastOff  int64
	haveLast bool
}

// NewExtractor returns an empty window aggregator.
func NewExtractor() *Extractor { return &Extractor{} }

// Add folds one record into the current window. It is O(1) with a handful
// of float operations — the per-event cost the paper reports as ~49 ns.
//
//kml:hotpath
func (e *Extractor) Add(rec Record) {
	e.count++
	if rec.Write {
		e.writes++
	}
	off := float64(rec.Offset)
	e.offsets.Add(off)
	if e.haveLast {
		switch d := rec.Offset - e.lastOff; {
		case d > 0:
			e.absSum += float64(d)
			e.signSum++
		case d < 0:
			e.absSum -= float64(d)
			e.signSum--
		}
		e.deltaN++
	}
	e.lastOff = rec.Offset
	e.haveLast = true
}

// Events returns the number of records in the current window.
func (e *Extractor) Events() uint64 { return e.count }

// Emit produces the raw feature vector for the window and resets the
// aggregator. raSectors is the current readahead value (feature v).
func (e *Extractor) Emit(raSectors int) Vector {
	var v Vector
	v[FeatEventCount] = float64(e.count)
	v[FeatOffsetMean] = e.offsets.Mean()
	v[FeatOffsetStdDev] = e.offsets.StdDev()
	if e.deltaN > 0 {
		v[FeatMeanAbsDelta] = e.absSum / float64(e.deltaN)
		v[FeatDeltaSign] = e.signSum / float64(e.deltaN)
	}
	if e.count > 0 {
		v[FeatWriteFrac] = float64(e.writes) / float64(e.count)
	}
	v[FeatReadahead] = float64(raSectors)
	e.Reset()
	return v
}

// Reset clears the window without emitting.
func (e *Extractor) Reset() {
	*e = Extractor{}
}

// Normalizer holds per-feature Z-score parameters fitted on training data
// and deployed with the model.
type Normalizer struct {
	Z [NumCandidates]stats.ZScore
}

// FitNormalizer estimates normalization parameters from raw vectors.
func FitNormalizer(raw []Vector) Normalizer {
	var agg [NumCandidates]stats.Running
	for _, v := range raw {
		for i, x := range v {
			agg[i].Add(x)
		}
	}
	var n Normalizer
	for i := range n.Z {
		n.Z[i] = stats.ZScore{Mean: agg[i].Mean(), StdDev: agg[i].StdDev()}
	}
	return n
}

// SelectedStats returns the training-time mean and standard deviation
// of each SELECTED candidate, in model input order — the frozen
// population statistics a drift monitor compares live feature windows
// against (the normalizer is exactly where training-time distribution
// knowledge survives into deployment).
func (n Normalizer) SelectedStats() (means, stds [Count]float64) {
	for i, c := range Selected {
		means[i] = n.Z[c].Mean
		stds[i] = n.Z[c].StdDev
	}
	return means, stds
}

// zClip bounds standardized features. Deployment windows from never-seen
// workloads can sit far outside the training distribution on one feature
// (mixgraph's offset deviation, for example); without clipping such a
// feature saturates every sigmoid and the prediction degenerates to an
// arbitrary class instead of the nearest pattern.
const zClip = 3.0

// Apply standardizes a raw vector, clipping each feature to ±3σ.
func (n Normalizer) Apply(raw Vector) Vector {
	var out Vector
	for i, x := range raw {
		out[i] = clip(n.Z[i].Apply(x))
	}
	return out
}

//
//kml:hotpath
func clip(x float64) float64 {
	if x > zClip {
		return zClip
	}
	if x < -zClip {
		return -zClip
	}
	return x
}

// ApplyInto standardizes the SELECTED features of raw into dst (a
// []float64 of length Count), clipping to ±3σ, allocation-free for the
// inference hot path.
//
//kml:hotpath
func (n Normalizer) ApplyInto(dst []float64, raw Vector) {
	for i, c := range Selected {
		dst[i] = clip(n.Z[c].Apply(raw[c]))
	}
}

// SelectInto copies the selected features of a normalized vector into dst
// (length Count) for model input.
//
//kml:hotpath
func SelectInto(dst []float64, normalized Vector) {
	for i, c := range Selected {
		dst[i] = normalized[c]
	}
}

// Select returns the selected features of a normalized vector.
func Select(normalized Vector) []float64 {
	dst := make([]float64, Count)
	SelectInto(dst, normalized)
	return dst
}

// normalizerMagic guards the serialized form ("KMLN").
const normalizerMagic = 0x4b4d4c4e

// ErrBadNormalizer reports a corrupt serialized normalizer.
var ErrBadNormalizer = errors.New("features: bad normalizer")

// normalizerLayout is the serialized normalizer, little-endian: magic u32,
// then each candidate's mean and standard deviation as f64s.
func normalizerLayout(c *wire.Codec, n *Normalizer) {
	magic := uint32(normalizerMagic)
	c.U32(&magic)
	c.Check(magic == normalizerMagic)
	for i := range n.Z {
		z := [2]float64{n.Z[i].Mean, n.Z[i].StdDev}
		if c.F64s(z[:]); c.Decoding() {
			n.Z[i] = stats.ZScore{Mean: z[0], StdDev: z[1]}
		}
	}
}

// Save writes the normalizer (it deploys alongside the model file).
func (n Normalizer) Save(w io.Writer) error {
	_, err := w.Write(wire.Append(nil, n, normalizerLayout))
	return err
}

// LoadNormalizer reads a normalizer written by Save.
func LoadNormalizer(r io.Reader) (Normalizer, error) {
	buf := make([]byte, 4+NumCandidates*16)
	if _, err := io.ReadFull(r, buf); err != nil {
		return Normalizer{}, fmt.Errorf("%w: %v", ErrBadNormalizer, err)
	}
	return wire.Parse(buf, normalizerLayout, ErrBadNormalizer)
}

// CorrelationReport computes the Pearson correlation of each feature with
// the class label, the analysis the authors used to confirm their feature
// choices (§4).
func CorrelationReport(raw []Vector, labels []int) ([NumCandidates]float64, error) {
	if len(raw) != len(labels) || len(raw) == 0 {
		return [NumCandidates]float64{}, fmt.Errorf("features: %d vectors, %d labels", len(raw), len(labels))
	}
	ys := make([]float64, len(labels))
	for i, l := range labels {
		ys[i] = float64(l)
	}
	var out [NumCandidates]float64
	xs := make([]float64, len(raw))
	for f := 0; f < NumCandidates; f++ {
		for i, v := range raw {
			xs[i] = v[f]
		}
		out[f] = stats.Pearson(xs, ys)
	}
	return out, nil
}
