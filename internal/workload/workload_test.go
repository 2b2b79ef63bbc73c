package workload

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/clock"
	"repro/internal/kvstore"
	"repro/internal/pagecache"
	"repro/internal/vfs"
)

func newStack(t testing.TB, keys int) (*kvstore.DB, *clock.Virtual, *blockdev.Device, *pagecache.Cache) {
	t.Helper()
	clk := clock.New()
	dev := blockdev.New(blockdev.NVMe(), clk)
	cache := pagecache.New(pagecache.Config{CapacityPages: 1 << 16}, clk, dev, nil)
	fs := vfs.New(cache)
	db, err := kvstore.Open(fs, kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Fill(db, Config{Keys: keys, ValueSize: 100, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	return db, clk, dev, cache
}

// run executes n operations.
func run(r *Runner, n int) error {
	for i := 0; i < n; i++ {
		if err := r.Step(); err != nil {
			return err
		}
	}
	return nil
}

func TestFillLoadsAllKeys(t *testing.T) {
	db, _, _, _ := newStack(t, 1000)
	for _, i := range []int{0, 1, 499, 999} {
		if _, ok, err := db.Get(Key(i)); !ok || err != nil {
			t.Fatalf("key %d: %v %v", i, ok, err)
		}
	}
	if db.Tables() != 1 {
		t.Errorf("fill should leave one compacted run, got %d", db.Tables())
	}
}

func TestKindNamesAndClasses(t *testing.T) {
	if ReadSeq.String() != "readseq" || MixGraph.String() != "mixgraph" {
		t.Error("names")
	}
	if Kind(99).String() != "workload(99)" {
		t.Error("unknown name")
	}
	if len(TrainingKinds()) != 4 || len(AllKinds()) != 6 {
		t.Error("kind sets")
	}
	for i, k := range TrainingKinds() {
		if k.Class() != i {
			t.Errorf("class of %s = %d", k, k.Class())
		}
	}
	if UpdateRandom.Class() != -1 || MixGraph.Class() != -1 {
		t.Error("unseen workloads must have no class")
	}
}

func TestEachWorkloadRuns(t *testing.T) {
	for _, kind := range AllKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			db, clk, _, _ := newStack(t, 2000)
			r := NewRunner(kind, db, clk, Config{Keys: 2000, ValueSize: 100, Seed: 2})
			start := clk.Now()
			if err := run(r, 500); err != nil {
				t.Fatal(err)
			}
			if r.Ops() != 500 {
				t.Errorf("ops = %d", r.Ops())
			}
			if r.Errs() != 0 {
				t.Errorf("errs = %d", r.Errs())
			}
			if clk.Now() <= start {
				t.Error("workload must consume virtual time")
			}
		})
	}
}

func TestRunForHonorsDeadline(t *testing.T) {
	db, clk, _, _ := newStack(t, 2000)
	r := NewRunner(ReadRandom, db, clk, Config{Keys: 2000, ValueSize: 100, Seed: 3})
	if err := r.RunFor(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if clk.Now() < 50*time.Millisecond {
		t.Error("RunFor stopped early")
	}
	if r.Ops() == 0 {
		t.Error("no ops")
	}
}

func TestReadSeqIsSequentialPattern(t *testing.T) {
	db, clk, dev, cache := newStack(t, 5000)
	cache.DropAll()
	dev.ResetStats()
	r := NewRunner(ReadSeq, db, clk, Config{Keys: 5000, ValueSize: 100, Seed: 4})
	if err := run(r, 4000); err != nil {
		t.Fatal(err)
	}
	// A sequential scan should trigger async readahead streaming.
	if dev.Stats().AsyncReads == 0 {
		t.Error("readseq never streamed")
	}
}

func TestReadRandomIsRandomPattern(t *testing.T) {
	db, clk, dev, cache := newStack(t, 20000)
	cache.DropAll()
	dev.ResetStats()
	r := NewRunner(ReadRandom, db, clk, Config{Keys: 20000, ValueSize: 100, Seed: 5})
	if err := run(r, 2000); err != nil {
		t.Fatal(err)
	}
	ds := dev.Stats()
	// Random point gets are served by synchronous reads, mostly.
	if ds.SyncReads < ds.AsyncReads {
		t.Errorf("random workload looked sequential: %d sync vs %d async", ds.SyncReads, ds.AsyncReads)
	}
}

func TestReadReverseCoversKeysDescending(t *testing.T) {
	db, clk, _, _ := newStack(t, 300)
	r := NewRunner(ReadReverse, db, clk, Config{Keys: 300, ValueSize: 100, Seed: 6})
	// The first step seeds the iterator at the last key; each later one
	// moves one key down, so one pass visits all 300 and the next step
	// runs off the front.
	if err := run(r, 300); err != nil {
		t.Fatal(err)
	}
	if !r.iter.Valid() {
		t.Fatal("the reverse scan ended before visiting every key")
	}
	if err := r.Step(); err != nil {
		t.Fatal(err)
	}
	if r.iter.Valid() {
		t.Error("the reverse scan went past the first key")
	}
}

func TestScanWrapsAround(t *testing.T) {
	db, clk, _, _ := newStack(t, 50)
	r := NewRunner(ReadSeq, db, clk, Config{Keys: 50, ValueSize: 100, Seed: 7})
	// More steps than keys: the scan must wrap and keep going.
	if err := run(r, 170); err != nil {
		t.Fatal(err)
	}
	if r.Ops() != 170 {
		t.Errorf("ops = %d", r.Ops())
	}
}

func TestWriteWorkloadsDirty(t *testing.T) {
	db, clk, _, _ := newStack(t, 2000)
	r := NewRunner(UpdateRandom, db, clk, Config{Keys: 2000, ValueSize: 100, Seed: 8})
	if err := run(r, 200); err != nil {
		t.Fatal(err)
	}
	if db.Stats().Puts <= 2000 { // 2000 from fill
		t.Error("updaterandom must write")
	}
}

func TestMixGraphMixesOps(t *testing.T) {
	db, clk, _, _ := newStack(t, 5000)
	before := db.Stats()
	r := NewRunner(MixGraph, db, clk, Config{Keys: 5000, ValueSize: 100, Seed: 9})
	if err := run(r, 2000); err != nil {
		t.Fatal(err)
	}
	after := db.Stats()
	gets := after.Gets - before.Gets
	puts := after.Puts - before.Puts
	if gets == 0 || puts == 0 {
		t.Errorf("mixgraph gets=%d puts=%d; must mix", gets, puts)
	}
	if gets < puts {
		t.Error("mixgraph must be read-dominated")
	}
}

func TestMixGraphIsSkewed(t *testing.T) {
	// The Zipfian generator must concentrate accesses on a hot set.
	db, clk, _, _ := newStack(t, 10000)
	r := NewRunner(MixGraph, db, clk, Config{Keys: 10000, ValueSize: 100, Seed: 10})
	counts := make(map[int]int)
	for i := 0; i < 10000; i++ {
		counts[r.mixKey()*mixGraphRanges/10000]++ // bucket by range
	}
	if counts[0] < 2000 {
		t.Errorf("hottest range only %d/10000 accesses; not skewed", counts[0])
	}
	if len(counts) < 8 {
		t.Errorf("only %d ranges touched; tail too short", len(counts))
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (uint64, time.Duration) {
		db, clk, _, _ := newStack(t, 2000)
		r := NewRunner(MixGraph, db, clk, Config{Keys: 2000, ValueSize: 100, Seed: 11})
		if err := run(r, 1000); err != nil {
			t.Fatal(err)
		}
		return r.Ops(), clk.Now()
	}
	ops1, t1 := run()
	ops2, t2 := run()
	if ops1 != ops2 || t1 != t2 {
		t.Errorf("runs diverged: %d/%v vs %d/%v", ops1, t1, ops2, t2)
	}
}

func TestKeyValueHelpers(t *testing.T) {
	if string(Key(42)) != "key000000000042" {
		t.Errorf("Key = %q", Key(42))
	}
	v := make([]byte, 30)
	fillValue(v, 7)
	if string(v) != "v00000000007-v00000000007-v000" {
		t.Errorf("value %q", v)
	}
}

// sink keeps the allocation gates' results alive (escape analysis would
// otherwise put them on the stack).
var sink []byte

// TestKeyValueMatchSprintf pins the hand-rolled formatters byte-for-byte
// against the fmt forms they replaced: every stored key and value in every
// experiment depends on these bytes.
func TestKeyValueMatchSprintf(t *testing.T) {
	cfg := Config{}.withDefaults()
	cases := []int{0, 1, 9, 10, 999_999_999_999, 1_000_000_000_000, cfg.Keys - 1}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		cases = append(cases, rng.Intn(1<<40))
	}
	for _, i := range cases {
		if got, want := string(Key(i)), fmt.Sprintf("key%012d", i); got != want {
			t.Fatalf("Key(%d) = %q, want %q", i, got, want)
		}
		for _, size := range []int{0, 5, 13, 64, 400} {
			got, pattern := make([]byte, size), fmt.Sprintf("v%011d-", i)
			if fillValue(got, i); !bytes.Equal(got, loopValue(size, pattern)) {
				t.Fatalf("value(size %d, %d) = %q, want %q repeated", size, i, got, pattern)
			}
		}
	}
	if a := testing.AllocsPerRun(100, func() { sink = Key(123456) }); a != 1 {
		t.Errorf("Key allocates %.0f times, want 1", a)
	}
	v := make([]byte, cfg.ValueSize)
	if a := testing.AllocsPerRun(100, func() { fillValue(v, 123456) }); a != 0 {
		t.Errorf("fillValue allocates %.0f times, want 0", a)
	}
}

// loopValue is the reference fillValue replaced: pattern copied at every
// multiple of its length.
func loopValue(size int, pattern string) []byte {
	v := make([]byte, size)
	for off := 0; off < size; off += len(pattern) {
		copy(v[off:], pattern)
	}
	return v
}

// TestFillValueMatchesLoop pins the doubling fillValue against the
// copy-per-pattern loop it replaced, on sizes around the 13-byte pattern
// and the block size, over a buffer that held another value before.
func TestFillValueMatchesLoop(t *testing.T) {
	for _, size := range []int{0, 1, 12, 13, 14, 400, 4097} {
		v := make([]byte, size)
		for _, i := range []int{0, 7, 99_999, 119_999, 123_456_789_012} {
			fillValue(v, i)
			if want := loopValue(size, fmt.Sprintf("v%011d-", i)); !bytes.Equal(v, want) {
				t.Fatalf("fillValue(size %d, %d) = %q, want %q", size, i, v, want)
			}
		}
	}
}

// TestReadRandomStepAllocFree: a readrandom step builds its key in the
// runner's buffer, and a miss reuses an evicted page, so once the page
// tables have grown a step allocates nothing, hit or miss.
func TestReadRandomStepAllocFree(t *testing.T) {
	clk := clock.New()
	dev := blockdev.New(blockdev.SATASSD(), clk)
	cache := pagecache.New(pagecache.Config{CapacityPages: 64}, clk, dev, nil)
	db, err := kvstore.Open(vfs.New(cache), kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Keys: 5000, Seed: 1}
	if err := Fill(db, cfg); err != nil {
		t.Fatal(err)
	}
	r := NewRunner(ReadRandom, db, clk, cfg)
	if err := run(r, 5000); err != nil {
		t.Fatal(err)
	}
	misses := cache.Stats().Misses
	a := testing.AllocsPerRun(2000, func() {
		if err := r.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if a != 0 {
		t.Errorf("a readrandom step allocates %.3f times, want 0", a)
	}
	if cache.Stats().Misses == misses {
		t.Error("no step missed the cache; the gate does not cover the miss path")
	}
}
