// Package workload implements the six db_bench workloads the paper
// evaluates (§4): readseq, readrandom, readreverse, readrandomwriterandom,
// updaterandom, and mixgraph (the Facebook-trace-derived mixed workload of
// Cao et al., FAST '20). Each workload drives the simulated LSM store one
// operation at a time and charges a fixed CPU cost per operation to the
// virtual clock, so throughput is ops per virtual second exactly as
// db_bench reports ops/sec.
//
// The paper trains its classifier on the first four workloads and shows
// generalization on updaterandom and mixgraph, which the harness
// reproduces by holding those two out of the training set.
package workload

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/clock"
	"repro/internal/kmath"
	"repro/internal/kvstore"
)

// Kind selects a workload.
type Kind int

// The six benchmark workloads, in the paper's Table 2 order.
const (
	ReadSeq Kind = iota
	ReadRandom
	ReadReverse
	ReadRandomWriteRandom
	UpdateRandom
	MixGraph
	numKinds
)

// TrainingKinds are the four workloads the paper trains on ("we trained on
// the data we collected by running only four workloads").
func TrainingKinds() []Kind {
	return []Kind{ReadSeq, ReadRandom, ReadReverse, ReadRandomWriteRandom}
}

// AllKinds returns every workload in Table 2 order.
func AllKinds() []Kind {
	return []Kind{ReadSeq, ReadRandom, ReadReverse, ReadRandomWriteRandom, UpdateRandom, MixGraph}
}

// String returns the db_bench benchmark name.
func (k Kind) String() string {
	switch k {
	case ReadSeq:
		return "readseq"
	case ReadRandom:
		return "readrandom"
	case ReadReverse:
		return "readreverse"
	case ReadRandomWriteRandom:
		return "readrandomwriterandom"
	case UpdateRandom:
		return "updaterandom"
	case MixGraph:
		return "mixgraph"
	default:
		return fmt.Sprintf("workload(%d)", int(k))
	}
}

// Class returns the classifier label for a workload. The paper's model has
// four classes (the training workloads); the policy maps unseen workloads
// onto whichever class the classifier predicts from their access pattern.
func (k Kind) Class() int {
	switch k {
	case ReadSeq:
		return 0
	case ReadRandom:
		return 1
	case ReadReverse:
		return 2
	case ReadRandomWriteRandom:
		return 3
	default:
		return -1 // unseen: no ground-truth class
	}
}

// NumClasses is the classifier output dimension.
const NumClasses = 4

// Config parameterizes a workload run.
type Config struct {
	// Keys is the number of distinct keys loaded by Fill.
	Keys int
	// ValueSize is the value payload size in bytes.
	ValueSize int
	// CPUGet is the serialized software cost of a point lookup. Because
	// the runner models the aggregate of a multi-threaded db_bench client
	// (see blockdev's saturated-queue model), this is the per-op CPU time
	// divided across client threads, so it is small.
	CPUGet time.Duration
	// CPUScanStep is the software cost of one iterator advance.
	CPUScanStep time.Duration
	// CPUPut is the software cost of a write (WAL encode + memtable insert).
	CPUPut time.Duration
	// ReadPercent is the read share for readrandomwriterandom; 0 means 90
	// (the db_bench default).
	ReadPercent int
	// ScanLength is the mixgraph range-scan length; 0 means 50.
	ScanLength int
	// Seed drives all randomness.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Keys == 0 {
		c.Keys = 100_000
	}
	if c.ValueSize == 0 {
		c.ValueSize = 400
	}
	if c.CPUGet == 0 {
		c.CPUGet = 2 * time.Microsecond
	}
	if c.CPUScanStep == 0 {
		c.CPUScanStep = time.Microsecond
	}
	if c.CPUPut == 0 {
		c.CPUPut = 2 * time.Microsecond
	}
	if c.ReadPercent == 0 {
		c.ReadPercent = 90
	}
	if c.ScanLength == 0 {
		c.ScanLength = 50
	}
	return c
}

// appendPadded appends i (non-negative, as every key index is) in decimal,
// zero-padded to width — the bytes of fmt's "%0*d", without fmt's
// allocations.
func appendPadded(dst []byte, i, width int) []byte {
	var num [20]byte
	digits := strconv.AppendInt(num[:0], int64(i), 10)
	for pad := width - len(digits); pad > 0; pad-- {
		dst = append(dst, '0')
	}
	return append(dst, digits...)
}

// Key formats key i in the fixed-width db_bench style ("key%012d"). The
// returned slice is fresh; callers may retain it.
func Key(i int) []byte { return appendKey(make([]byte, 0, 15), i) }

// appendKey appends key i's bytes to dst.
func appendKey(dst []byte, i int) []byte { return appendPadded(append(dst, "key"...), i, 12) }

// fillValue overwrites v with value i's bytes, the pattern "v%011d-"
// repeated: the pattern once, then doubled in place until v is full.
func fillValue(v []byte, i int) {
	var buf [24]byte
	n := copy(v, append(appendPadded(append(buf[:0], 'v'), i, 11), '-'))
	for n < len(v) {
		n += copy(v[n:], v[:n])
	}
}

// Fill loads the key space sequentially (db_bench fillseq) and compacts to
// a steady initial state. One key and one value buffer serve every Put,
// since Put copies what it keeps.
func Fill(db *kvstore.DB, cfg Config) error {
	cfg = cfg.withDefaults()
	var key []byte
	value := make([]byte, cfg.ValueSize)
	for i := 0; i < cfg.Keys; i++ {
		key = appendKey(key[:0], i)
		fillValue(value, i)
		if err := db.Put(key, value); err != nil {
			return err
		}
	}
	if err := db.Flush(); err != nil {
		return err
	}
	return db.Compact()
}

// Runner executes one workload operation at a time against a DB.
type Runner struct {
	kind     Kind
	db       *kvstore.DB
	clk      *clock.Virtual
	cfg      Config
	rng      *rand.Rand
	rangeCDF []float64

	iter *kvstore.Iterator // persistent scan state for readseq/readreverse
	// The step's key and a put's value, rebuilt in place every step: the
	// DB copies what it keeps, so a step allocates nothing for them.
	key, value []byte
	ops        uint64
	errs       uint64
}

// NewRunner builds a runner. The DB should already be filled.
func NewRunner(kind Kind, db *kvstore.DB, clk *clock.Virtual, cfg Config) *Runner {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed + int64(kind)*7919))
	r := &Runner{kind: kind, db: db, clk: clk, cfg: cfg, rng: rng, value: make([]byte, cfg.ValueSize)}
	if kind == MixGraph {
		// Hot key ranges after Cao et al.'s RocksDB trace characterization:
		// the key space splits into ranges whose access probability decays
		// as a power law; keys are uniform within a range. This yields a
		// hot set with a long miss tail rather than a handful of hot keys.
		r.rangeCDF = makeRangeCDF(mixGraphRanges, 1.5)
	}
	return r
}

// Kind returns the workload being run.
func (r *Runner) Kind() Kind { return r.kind }

// Ops returns the number of operations completed.
func (r *Runner) Ops() uint64 { return r.ops }

// Errs returns the number of operations that failed (should stay 0).
func (r *Runner) Errs() uint64 { return r.errs }

// Step executes one operation, charging CPU and device time to the clock.
func (r *Runner) Step() error {
	var err error
	switch r.kind {
	case ReadSeq:
		err = r.stepScan(false)
	case ReadReverse:
		err = r.stepScan(true)
	case ReadRandom:
		err = r.stepGet(r.uniformKey())
	case ReadRandomWriteRandom:
		if r.rng.Intn(100) < r.cfg.ReadPercent {
			err = r.stepGet(r.uniformKey())
		} else {
			err = r.stepPut(r.uniformKey())
		}
	case UpdateRandom:
		key := r.uniformKey()
		if err = r.stepGet(key); err == nil {
			err = r.stepPut(key)
		}
	case MixGraph:
		err = r.stepMixGraph()
	default:
		return fmt.Errorf("workload: unknown kind %d", r.kind)
	}
	if err != nil {
		r.errs++
		return err
	}
	r.ops++
	return nil
}

// RunFor executes operations until the virtual clock passes deadline.
func (r *Runner) RunFor(d time.Duration) error {
	deadline := r.clk.Now() + d
	for r.clk.Now() < deadline {
		if err := r.Step(); err != nil {
			return err
		}
	}
	return nil
}

func (r *Runner) uniformKey() []byte { return r.keyOf(r.rng.Intn(r.cfg.Keys)) }

// keyOf builds key i in the runner's key buffer.
func (r *Runner) keyOf(i int) []byte {
	r.key = appendKey(r.key[:0], i)
	return r.key
}

// valueOf builds value i in the runner's value buffer.
func (r *Runner) valueOf(i int) []byte {
	fillValue(r.value, i)
	return r.value
}

func (r *Runner) stepGet(key []byte) error {
	r.clk.Advance(r.cfg.CPUGet)
	_, _, err := r.db.Get(key)
	return err
}

func (r *Runner) stepPut(key []byte) error {
	r.clk.Advance(r.cfg.CPUPut)
	return r.db.Put(key, r.valueOf(r.rng.Intn(r.cfg.Keys)))
}

// stepScan advances a persistent full-DB scan one entry, restarting (and
// refreshing the iterator) when it runs off the end — db_bench readseq
// and readreverse are repeated full scans.
func (r *Runner) stepScan(rev bool) error {
	r.clk.Advance(r.cfg.CPUScanStep)
	if r.iter == nil || !r.iter.Valid() {
		if rev {
			r.iter = r.db.NewReverseIterator()
			r.iter.SeekToLast()
		} else {
			r.iter = r.db.NewIterator()
			r.iter.SeekToFirst()
		}
		if !r.iter.Valid() {
			return fmt.Errorf("workload: empty DB for %s", r.kind)
		}
		return r.iter.Err()
	}
	r.iter.Next()
	return r.iter.Err()
}

// mixGraphRanges is the number of hot key ranges the mixgraph key
// distribution uses.
const mixGraphRanges = 32

// makeRangeCDF builds the cumulative distribution of range weights
// w_i ∝ (i+1)^-alpha.
func makeRangeCDF(n int, alpha float64) []float64 {
	weights := make([]float64, n)
	total := 0.0
	for i := range weights {
		weights[i] = kmath.Pow(float64(i+1), -alpha)
		total += weights[i]
	}
	cdf := make([]float64, n)
	acc := 0.0
	for i, w := range weights {
		acc += w / total
		cdf[i] = acc
	}
	return cdf
}

// mixKey draws a key from the hot-range distribution.
func (r *Runner) mixKey() int {
	u := r.rng.Float64()
	ri := 0
	for ri < len(r.rangeCDF)-1 && u > r.rangeCDF[ri] {
		ri++
	}
	rangeSize := r.cfg.Keys / len(r.rangeCDF)
	if rangeSize < 1 {
		rangeSize = 1
	}
	base := ri * rangeSize
	k := base + r.rng.Intn(rangeSize)
	if k >= r.cfg.Keys {
		k = r.cfg.Keys - 1
	}
	return k
}

// stepMixGraph approximates the mixgraph operation mix: 85% hot-range point
// gets, 14% hot-range puts, 1% short range scans.
func (r *Runner) stepMixGraph() error {
	k := r.mixKey()
	key := r.keyOf(k)
	switch p := r.rng.Intn(100); {
	case p < 85:
		return r.stepGet(key)
	case p < 99:
		r.clk.Advance(r.cfg.CPUPut)
		return r.db.Put(key, r.valueOf(k))
	default:
		r.clk.Advance(r.cfg.CPUGet) // seek cost
		it := r.db.NewIterator()
		it.Seek(key)
		for i := 0; i < r.cfg.ScanLength && it.Valid(); i++ {
			r.clk.Advance(r.cfg.CPUScanStep)
			it.Next()
		}
		return it.Err()
	}
}
