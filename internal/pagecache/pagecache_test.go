package pagecache

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/clock"
	"repro/internal/trace"
)

func newCache(capacity int) (*Cache, *blockdev.Device, *clock.Virtual, *trace.Tracer) {
	clk := clock.New()
	dev := blockdev.New(blockdev.NVMe(), clk)
	tr := trace.New()
	c := New(Config{CapacityPages: capacity}, clk, dev, tr)
	return c, dev, clk, tr
}

// contains reports whether page idx of file f is cached.
func contains(c *Cache, f FileID, idx int64) bool {
	fs := c.files[f]
	return fs != nil && idx >= 0 && c.lookup(fs, idx) != nil
}

// countEvents registers a hook on tr that counts events per tracepoint.
func countEvents(tr *trace.Tracer) map[trace.Point]int {
	n := make(map[trace.Point]int)
	tr.Register(func(ev trace.Event) { n[ev.Point]++ })
	return n
}

func TestMissThenHit(t *testing.T) {
	c, _, clk, _ := newCache(1024)
	c.ReadPages(1, 0, 1)
	if c.Stats().Misses != 1 {
		t.Fatalf("misses = %d", c.Stats().Misses)
	}
	t1 := clk.Now()
	if t1 == 0 {
		t.Fatal("miss must cost device time")
	}
	c.ReadPages(1, 0, 1)
	if c.Stats().Hits == 0 {
		t.Fatal("second read must hit")
	}
	if clk.Now() != t1 {
		t.Error("pure cache hit must not advance the clock")
	}
}

func TestInitWindowMatchesLinuxShape(t *testing.T) {
	// get_init_ra_size(req, max): round up, then ×4 below max/32,
	// ×2 below max/4, else max.
	cases := []struct{ req, max, want int }{
		{1, 32, 4},   // 1 ≤ 32/32 → ×4
		{2, 32, 4},   // 2 ≤ 8 → ×2
		{2, 128, 8},  // 2 ≤ 4 → ×4
		{8, 32, 16},  // 8 ≤ 32/4 → ×2
		{16, 32, 32}, // 16 > 32/4 → max
		{1, 1, 1},    // tiny max clamps
		{4, 0, 4},    // readahead disabled: exactly the request
		{16, 8, 16},  // request larger than max: never shrink below req
		{3, 128, 16}, // roundup(3)=4 ≤ 128/32 → ×4
	}
	for _, tc := range cases {
		if got := initWindow(tc.req, tc.max); got != tc.want {
			t.Errorf("initWindow(%d, %d) = %d, want %d", tc.req, tc.max, got, tc.want)
		}
	}
}

func TestNextWindowRamp(t *testing.T) {
	cases := []struct{ cur, max, want int }{
		{4, 128, 16},  // < max/16 → ×4
		{16, 128, 32}, // ≤ max/2 → ×2
		{100, 128, 128},
		{32, 32, 32},
	}
	for _, tc := range cases {
		if got := nextWindow(tc.cur, tc.max); got != tc.want {
			t.Errorf("nextWindow(%d, %d) = %d, want %d", tc.cur, tc.max, got, tc.want)
		}
	}
}

func TestRandomMissOverReads(t *testing.T) {
	c, dev, _, _ := newCache(4096)
	dev.SetReadahead(256) // 32 pages
	// A 2-page random read should fetch an initial window of 4 pages:
	// 2 needed + 2 speculative.
	c.ReadPages(1, 100, 2)
	s := c.Stats()
	if s.Misses != 2 {
		t.Errorf("misses = %d", s.Misses)
	}
	if s.SpecInserted != 2 {
		t.Errorf("speculative inserts = %d, want 2 (init window 4)", s.SpecInserted)
	}
	if !contains(c, 1, 102) || !contains(c, 1, 103) {
		t.Error("speculative pages missing from cache")
	}
}

func TestTunedReadaheadEliminatesWaste(t *testing.T) {
	c, dev, _, _ := newCache(4096)
	dev.SetReadahead(blockdev.SectorsPerPage) // 1 page: the tuned value
	c.ReadPages(1, 100, 2)
	if c.Stats().SpecInserted != 0 {
		t.Errorf("tuned readahead still speculated %d pages", c.Stats().SpecInserted)
	}
}

func TestSequentialStreamRampsAndGoesAsync(t *testing.T) {
	c, dev, _, _ := newCache(8192)
	dev.SetReadahead(256) // 32 pages max
	// Read 512 pages sequentially in 2-page requests.
	for off := int64(0); off < 512; off += 2 {
		c.ReadPages(1, off, 2)
	}
	s := c.Stats()
	ds := dev.Stats()
	if ds.AsyncReads == 0 {
		t.Fatal("sequential stream never went async")
	}
	// Once streaming, almost all pages should arrive via readahead: misses
	// stay far below the page count.
	if s.Misses > 64 {
		t.Errorf("sequential stream had %d sync misses for 512 pages", s.Misses)
	}
	// Speculative pages are consumed by the stream.
	if s.SpecUsed == 0 {
		t.Error("stream never consumed speculative pages")
	}
}

func TestSequentialThroughputNearBandwidth(t *testing.T) {
	c, dev, clk, _ := newCache(16384)
	dev.SetReadahead(256)
	const pages = 4096
	for off := int64(0); off < pages; off += 2 {
		c.ReadPages(1, off, 2)
	}
	elapsed := clk.Now().Seconds()
	gotBW := float64(pages*blockdev.PageSize) / elapsed
	wantBW := float64(blockdev.PageSize) / dev.Profile().PageTransfer.Seconds()
	if gotBW < 0.6*wantBW {
		t.Errorf("sequential throughput %.0f MB/s < 60%% of device bandwidth %.0f MB/s",
			gotBW/1e6, wantBW/1e6)
	}
}

func TestBackwardScanSeesNoWaste(t *testing.T) {
	c, dev, _, _ := newCache(8192)
	dev.SetReadahead(256)
	// Warm nothing; scan backward in 2-page blocks from page 1000.
	for off := int64(1000); off >= 0; off -= 2 {
		c.ReadPages(1, off, 2)
	}
	s := c.Stats()
	// The forward speculative window overlaps already-read (cached) pages,
	// so waste should be tiny relative to the 500 block reads.
	if s.SpecInserted > 16 {
		t.Errorf("backward scan speculated %d pages; expected almost none", s.SpecInserted)
	}
}

func TestLRUEviction(t *testing.T) {
	c, dev, _, _ := newCache(8)
	dev.SetReadahead(blockdev.SectorsPerPage)
	for i := int64(0); i < 16; i++ {
		c.ReadPages(1, i*10, 1) // distinct random pages
	}
	if c.resident != 8 {
		t.Errorf("cache len = %d, want 8", c.resident)
	}
	if c.Stats().Evicted != 8 {
		t.Errorf("evicted = %d", c.Stats().Evicted)
	}
	// Oldest pages gone, newest present.
	if contains(c, 1, 0) {
		t.Error("oldest page should be evicted")
	}
	if !contains(c, 1, 150) {
		t.Error("newest page should be cached")
	}
}

func TestLRUTouchKeepsHotPages(t *testing.T) {
	c, dev, _, _ := newCache(4)
	dev.SetReadahead(blockdev.SectorsPerPage)
	c.ReadPages(1, 0, 1)
	c.ReadPages(1, 10, 1)
	c.ReadPages(1, 20, 1)
	c.ReadPages(1, 30, 1)
	c.ReadPages(1, 0, 1) // touch page 0: now hottest
	c.ReadPages(1, 40, 1)
	if !contains(c, 1, 0) {
		t.Error("touched page was evicted")
	}
	if contains(c, 1, 10) {
		t.Error("coldest page should have been evicted")
	}
}

func TestWriteDirtyAndWriteback(t *testing.T) {
	c, dev, _, tr := newCache(1024)
	events := countEvents(tr)
	c.WritePages(2, 0, 10)
	if c.dirtyCount != 10 {
		t.Errorf("dirty = %d", c.dirtyCount)
	}
	if events[trace.WritebackDirtyPage] != 10 {
		t.Errorf("writeback_dirty_page fired %d times", events[trace.WritebackDirtyPage])
	}
	if events[trace.AddToPageCache] != 10 {
		t.Errorf("add_to_page_cache fired %d times", events[trace.AddToPageCache])
	}
	// Rewriting the same pages must not double-count dirtying.
	c.WritePages(2, 0, 10)
	if c.dirtyCount != 10 {
		t.Error("re-dirtying already dirty pages")
	}
	before := dev.Stats().PagesWrit
	c.SyncFile(2)
	if c.dirtyCount != 0 {
		t.Error("SyncFile must clean all pages")
	}
	if dev.Stats().PagesWrit-before != 10 {
		t.Errorf("SyncFile wrote %d pages", dev.Stats().PagesWrit-before)
	}
}

func TestBackgroundWritebackThreshold(t *testing.T) {
	clk := clock.New()
	dev := blockdev.New(blockdev.NVMe(), clk)
	c := New(Config{CapacityPages: 100, DirtyRatio: 0.10, WritebackBatch: 8}, clk, dev, nil)
	// Dirty 11 pages: threshold is 10, so background writeback must fire.
	c.WritePages(1, 0, 11)
	if c.dirtyCount > 10 {
		t.Errorf("dirty %d pages; background writeback should have run", c.dirtyCount)
	}
	if c.Stats().Writebacks == 0 {
		t.Error("no writebacks recorded")
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	clk := clock.New()
	dev := blockdev.New(blockdev.NVMe(), clk)
	// High dirty ratio so background writeback stays out of the way.
	c := New(Config{CapacityPages: 4, DirtyRatio: 0.99}, clk, dev, nil)
	c.WritePages(1, 0, 3)
	dev.SetReadahead(blockdev.SectorsPerPage)
	c.ReadPages(1, 100, 1)
	c.ReadPages(1, 200, 1) // evicts a dirty page
	if c.Stats().DirtyEvicted == 0 {
		t.Error("dirty eviction not recorded")
	}
	if dev.Stats().PagesWrit == 0 {
		t.Error("dirty eviction must write back")
	}
}

func TestPerFileReadaheadOverride(t *testing.T) {
	c, dev, _, _ := newCache(4096)
	dev.SetReadahead(256)
	c.SetFileReadahead(1, blockdev.SectorsPerPage) // file 1 tuned down
	c.ReadPages(1, 100, 2)                         // no speculation
	c.ReadPages(2, 100, 2)                         // device default: window 4
	s := c.Stats()
	if s.SpecInserted != 2 {
		t.Errorf("spec inserts = %d, want 2 (only file 2)", s.SpecInserted)
	}
	c.SetFileReadahead(1, 0) // restore default
	c.ReadPages(1, 500, 2)
	if c.Stats().SpecInserted != 4 {
		t.Error("restored file should speculate again")
	}
}

func TestWaitHitsOnInFlightReadahead(t *testing.T) {
	c, dev, clk, _ := newCache(8192)
	dev.SetReadahead(1024) // 128 pages: large async windows
	// Start a stream.
	for off := int64(0); off < 64; off += 2 {
		c.ReadPages(1, off, 2)
	}
	// Consume far ahead immediately: some pages will be in flight.
	start := clk.Now()
	for off := int64(64); off < 256; off += 2 {
		c.ReadPages(1, off, 2)
	}
	if c.Stats().WaitHits == 0 {
		t.Error("expected waits on in-flight readahead pages")
	}
	if clk.Now() == start {
		t.Error("waiting must advance the clock")
	}
}

func TestDropAll(t *testing.T) {
	c, _, _, _ := newCache(1024)
	c.ReadPages(1, 0, 8)
	c.WritePages(1, 100, 4)
	c.DropAll()
	if c.resident != 0 || c.dirtyCount != 0 {
		t.Error("DropAll must empty the cache")
	}
	if contains(c, 1, 0) {
		t.Error("page survived DropAll")
	}
}

func TestTracepointsOnRead(t *testing.T) {
	c, dev, _, tr := newCache(1024)
	counts := countEvents(tr)
	dev.SetReadahead(256)
	c.ReadPages(7, 10, 2) // window 4: four insertions
	if got := counts[trace.AddToPageCache]; got != 4 {
		t.Errorf("add_to_page_cache fired %d times, want 4", got)
	}
	var events []trace.Event
	tr.Register(func(ev trace.Event) { events = append(events, ev) })
	c.ReadPages(7, 100, 1)
	for _, ev := range events {
		if ev.Inode != 7 {
			t.Errorf("event inode %d", ev.Inode)
		}
		if ev.Offset < 100 || ev.Offset > 104 {
			t.Errorf("event offset %d", ev.Offset)
		}
	}
}

func TestSpecUsedAccounting(t *testing.T) {
	c, dev, _, _ := newCache(4096)
	dev.SetReadahead(256)
	c.ReadPages(1, 100, 2) // inserts spec pages 102, 103
	c.ReadPages(1, 102, 2) // consumes them
	s := c.Stats()
	if s.SpecUsed != 2 {
		t.Errorf("SpecUsed = %d, want 2", s.SpecUsed)
	}
}

func TestHitRate(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Error("empty hit rate")
	}
	s.Hits, s.Misses = 3, 1
	if s.HitRate() != 0.75 {
		t.Errorf("hit rate %g", s.HitRate())
	}
}

func TestInvalidArgsPanic(t *testing.T) {
	c, _, _, _ := newCache(16)
	for _, f := range []func(){
		func() { c.ReadPages(1, -1, 1) },
		func() { c.ReadPages(1, 0, 0) },
		func() { c.WritePages(1, -1, 1) },
		func() { c.WritePages(1, 0, 0) },
		func() { New(Config{}, clock.New(), nil, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid args must panic")
				}
			}()
			f()
		}()
	}
}

func TestReadaheadSettingAffectsWasteRatio(t *testing.T) {
	// The central economic fact of the paper: for random access, large
	// device readahead wastes bandwidth. Compare device page counts.
	run := func(raSectors int) uint64 {
		c, dev, _, _ := newCache(1 << 20)
		dev.SetReadahead(raSectors)
		for i := int64(0); i < 500; i++ {
			c.ReadPages(1, (i*7919)%100000, 2) // scattered reads
		}
		ds := dev.Stats()
		return ds.PagesSpec
	}
	defaultWaste := run(256)
	tunedWaste := run(blockdev.SectorsPerPage)
	if tunedWaste != 0 {
		t.Errorf("tuned waste = %d pages", tunedWaste)
	}
	if defaultWaste < 500 {
		t.Errorf("default waste = %d pages; expected ≥ 1 wasted page/read", defaultWaste)
	}
}

func TestWaitIsBounded(t *testing.T) {
	// Regression guard: clock must always move forward and reads must
	// terminate even with pathological interleavings.
	c, dev, clk, _ := newCache(64)
	dev.SetReadahead(1024)
	last := time.Duration(0)
	for i := 0; i < 200; i++ {
		off := int64((i * 37) % 500)
		c.ReadPages(3, off, 1)
		if clk.Now() < last {
			t.Fatal("clock went backward")
		}
		last = clk.Now()
	}
}

func BenchmarkReadPagesHit(b *testing.B) {
	c, _, _, _ := newCache(1024)
	c.ReadPages(1, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ReadPages(1, 0, 1)
	}
}

func BenchmarkReadPagesSequential(b *testing.B) {
	c, dev, _, _ := newCache(1 << 22)
	dev.SetReadahead(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ReadPages(1, int64(i)*2, 2)
	}
}

// BenchmarkReadPagesRandom is the readrandom shape: one-page reads at
// random offsets of a file four times the cache, the device's readahead
// at its smallest, so about three reads in four miss, evict a page and
// insert one.
func BenchmarkReadPagesRandom(b *testing.B) {
	const capacity, filePages = 4096, 4 * 4096
	clk := clock.New()
	dev := blockdev.New(blockdev.SATASSD(), clk)
	dev.SetReadahead(blockdev.SectorsPerPage)
	c := New(Config{CapacityPages: capacity}, clk, dev, nil)
	c.SetFilePages(1, filePages)
	offs := make([]int64, 1<<16)
	rng := rand.New(rand.NewSource(1))
	for i := range offs {
		offs[i] = rng.Int63n(filePages)
	}
	for _, off := range offs {
		c.ReadPages(1, off, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ReadPages(1, offs[i&(len(offs)-1)], 1)
	}
}
