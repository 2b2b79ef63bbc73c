// Package pagecache simulates the OS memory-management subsystem the
// paper's KML application instruments and controls: a page cache with LRU
// reclaim, dirty-page writeback, and — most importantly — a Linux-flavored
// on-demand readahead engine with per-file readahead state, sequential
// window ramp-up, asynchronous readahead markers and per-file ra_pages
// overrides.
//
// # Readahead model
//
// The engine follows the structure of Linux's ondemand_readahead:
//
//   - A cache miss that continues the file's previous request (sequential)
//     grows the window (get_next_ra_size: ×4 below max/16, ×2 below max/2,
//     else max) and fetches it, placing an async marker after the
//     synchronously needed portion.
//   - A hit on a marker page triggers the next window asynchronously, so a
//     detected stream becomes bandwidth-bound rather than latency-bound.
//   - A random miss fetches get_init_ra_size(req, max) pages: requests are
//     speculatively rounded up (×4 below max/32, ×2 below max/4, else max),
//     which is precisely the over-read that the paper's readahead tuning
//     eliminates for random workloads by lowering ra_pages.
//   - Pages already cached inside a window are never re-fetched; backward
//     scans therefore see almost no speculative waste, matching the small
//     readreverse gains in the paper's Table 2.
//
// Speculative pages occupy the device (delaying later requests) and the
// cache (evicting useful pages) — the two mechanisms that make readahead
// tuning matter on real systems.
//
// The cache emits the tracepoints the paper collects: add_to_page_cache on
// every page insertion and writeback_dirty_page on every page dirtying.
package pagecache

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/blockdev"
	"repro/internal/clock"
	"repro/internal/trace"
)

// FileID identifies a file (the simulated inode number).
type FileID uint64

// Config parameterizes the cache.
type Config struct {
	// CapacityPages bounds the cache size; required.
	CapacityPages int
	// DirtyRatio triggers background writeback when exceeded; 0 means 0.10.
	DirtyRatio float64
	// WritebackBatch is the number of pages flushed per writeback burst;
	// 0 means 64.
	WritebackBatch int
}

func (c Config) withDefaults() Config {
	if c.DirtyRatio == 0 {
		c.DirtyRatio = 0.10
	}
	if c.WritebackBatch == 0 {
		c.WritebackBatch = 64
	}
	return c
}

// pageKey names a page: its file and its index in that file.
type pageKey struct {
	file FileID
	idx  int64
}

type page struct {
	key     pageKey
	readyAt time.Duration
	dirty   bool
	marker  bool // async readahead trigger
	spec    bool // inserted speculatively, not yet used
	// intrusive LRU list links; next also links the free list
	prev, next *page
}

// Stats aggregates cache behaviour.
type Stats struct {
	Hits         uint64
	WaitHits     uint64 // hits on in-flight readahead pages
	Misses       uint64
	Inserted     uint64
	SpecInserted uint64
	SpecUsed     uint64 // speculative pages later actually read
	Evicted      uint64
	DirtyEvicted uint64
	Writebacks   uint64
	WaitTime     time.Duration
}

// raState is the per-file readahead state (struct file_ra_state analogue).
type raState struct {
	nextSeq  int64 // page index one past the previous request (sequential test)
	start    int64 // start of the current readahead window
	size     int   // window size in pages
	frontier int64 // one past the highest page fetched for this stream
}

// fileState is everything the cache keeps for one file (the inode's
// address_space plus its file_ra_state): a page table indexed by page
// number, so a lookup is one bounds check and one load, the readahead
// state, and the settings that DropAll keeps.
type fileState struct {
	id    FileID
	pages []*page // pages[i] is page i when cached, else nil
	ra    raState
	raSec int   // per-file ra override in sectors (ra_pages); 0 = device default
	size  int64 // file size in pages, -1 until set; readahead never crosses EOF
}

// Cache is the simulated page cache.
type Cache struct {
	cfg    Config
	clk    *clock.Virtual
	dev    *blockdev.Device
	tracer *trace.Tracer

	files    map[FileID]*fileState
	resident int // cached pages, across every file
	// LRU list: head = most recent, tail = eviction candidate.
	head, tail *page
	free       *page   // evicted pages, linked by next, for insert to reuse
	fetch      []int64 // asyncAhead's scratch: the window's uncached pages

	dirtyFIFO  []pageKey
	dirtyCount int

	stats Stats
}

// New returns a page cache over dev, emitting tracepoints through tracer
// (which may be nil to disable tracing).
func New(cfg Config, clk *clock.Virtual, dev *blockdev.Device, tracer *trace.Tracer) *Cache {
	if cfg.CapacityPages <= 0 {
		panic("pagecache: CapacityPages must be positive")
	}
	return &Cache{
		cfg:    cfg.withDefaults(),
		clk:    clk,
		dev:    dev,
		tracer: tracer,
		files:  make(map[FileID]*fileState),
	}
}

// file returns f's state, creating it on first use.
func (c *Cache) file(f FileID) *fileState {
	fs, ok := c.files[f]
	if !ok {
		fs = &fileState{id: f, ra: raState{nextSeq: -1}, size: -1}
		c.files[f] = fs
	}
	return fs
}

// lookup returns page idx of fs, or nil when it is not cached.
//
//kml:hotpath
func (c *Cache) lookup(fs *fileState, idx int64) *page {
	if idx < int64(len(fs.pages)) {
		return fs.pages[idx]
	}
	return nil
}

// unmap removes page idx of fs from the cache: out of its slot and the
// LRU list, onto the free list.
//
//kml:hotpath
func (c *Cache) unmap(fs *fileState, idx int64) {
	pg := fs.pages[idx]
	fs.pages[idx] = nil
	c.lruRemove(pg)
	c.release(pg)
	c.resident--
}

// release puts an unlinked page on the free list.
//
//kml:hotpath
func (c *Cache) release(pg *page) {
	pg.dirty, pg.marker, pg.spec = false, false, false
	pg.prev, pg.next = nil, c.free
	c.free = pg
}

// --- intrusive LRU ---

// lruPush links p at the MRU head. Pure pointer relinking — the page
// allocation happened at insert — so it is safe on the per-access path.
//
//kml:hotpath
func (c *Cache) lruPush(p *page) {
	p.prev = nil
	p.next = c.head
	if c.head != nil {
		c.head.prev = p
	}
	c.head = p
	if c.tail == nil {
		c.tail = p
	}
}

// lruRemove unlinks p from the LRU list.
//
//kml:hotpath
func (c *Cache) lruRemove(p *page) {
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		c.head = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	} else {
		c.tail = p.prev
	}
	p.prev, p.next = nil, nil
}

// lruTouch moves p to the MRU position on a hit.
//
//kml:hotpath
func (c *Cache) lruTouch(p *page) {
	if c.head == p {
		return
	}
	c.lruRemove(p)
	c.lruPush(p)
}

// --- readahead window sizing (Linux get_init_ra_size / get_next_ra_size) ---

func roundupPow2(v int) int {
	n := 1
	for n < v {
		n <<= 1
	}
	return n
}

// initWindow mirrors Linux get_init_ra_size: speculatively round the
// request up, bounded by the configured maximum.
func initWindow(req, max int) int {
	if max <= 0 {
		return req
	}
	size := roundupPow2(req)
	switch {
	case size <= max/32:
		size *= 4
	case size <= max/4:
		size *= 2
	default:
		size = max
	}
	if size < req {
		size = req
	}
	if size > max && max >= req {
		size = max
	}
	return size
}

// nextWindow mirrors Linux get_next_ra_size: ramp the sequential window.
func nextWindow(cur, max int) int {
	if max <= 0 {
		return cur
	}
	var size int
	switch {
	case cur < max/16:
		size = cur * 4
	case cur <= max/2:
		size = cur * 2
	default:
		size = max
	}
	if size > max {
		size = max
	}
	if size < 1 {
		size = 1
	}
	return size
}

// raPagesFor resolves the effective readahead maximum for a file:
// per-file override, else device setting.
func (c *Cache) raPagesFor(fs *fileState) int {
	sectors := fs.raSec
	if sectors == 0 {
		sectors = c.dev.ReadaheadSectors()
	}
	return sectors / blockdev.SectorsPerPage
}

// ReadPages simulates a buffered read of pages [off, off+n) of file f,
// advancing the virtual clock by the resulting cache/device behaviour.
func (c *Cache) ReadPages(f FileID, off int64, n int) {
	if n <= 0 || off < 0 {
		panic(fmt.Sprintf("pagecache: ReadPages(%d, %d, %d)", f, off, n))
	}
	fs := c.file(f)
	seq := off == fs.ra.nextSeq && fs.ra.nextSeq > 0
	end := off + int64(n)
	for i := off; i < end; i++ {
		pg := c.lookup(fs, i)
		if pg == nil {
			c.missFetch(fs, i, int(end-i), seq)
			// missFetch covered the remainder of the request.
			break
		}
		c.hit(pg, fs)
	}
	fs.ra.nextSeq = end
}

// missFetch handles a cache miss at page start with need pages remaining in
// the request: size a window, fetch the uncached pages in one device
// request (needed portion synchronously, speculative remainder
// asynchronously), and place the async marker for sequential streams.
func (c *Cache) missFetch(fs *fileState, start int64, need int, seq bool) {
	st := &fs.ra
	max := c.raPagesFor(fs)
	switch {
	case seq && max > 0:
		st.size = nextWindow(st.size, max)
		if st.size < need {
			st.size = need
		}
	case max > 0:
		// Random miss. Linux's ondemand_readahead first tries context
		// readahead: if the pages immediately before the missed index are
		// resident, it infers an interleaved stream and sizes the window
		// from that cached run (try_context_readahead). On partially
		// cached files under random access this systematically over-reads
		// — the pathology that tuning ra_pages down eliminates, and a
		// load-bearing part of the paper's readrandom gains.
		if run := c.cachedRunBefore(fs, start, max); run > need {
			st.size = run * 2
			if st.size > max {
				st.size = max
			}
			if st.size < need {
				st.size = need
			}
		} else {
			st.size = initWindow(need, max)
		}
	default:
		st.size = need
	}
	window := st.size
	// Readahead never crosses EOF (Linux clamps the window to the file).
	if limit := fs.size; limit >= 0 && start+int64(window) > limit {
		window = int(limit - start)
		if window < need {
			window = need // the caller's own pages are always fetched
		}
		st.size = window
	}
	st.start = start
	st.frontier = start + int64(window)

	// Partition the window into needed-and-uncached vs speculative-and-
	// uncached pages; pages already cached are skipped (never re-fetched).
	// Page start is a miss, so fgCount is at least one.
	var fgCount, specCount int
	for w := 0; w < window; w++ {
		if c.lookup(fs, start+int64(w)) != nil {
			continue
		}
		if w < need {
			fgCount++
		} else {
			specCount++
		}
	}
	fgReady, winReady := c.dev.SyncRead(fgCount, fgCount+specCount)

	markerAt := int64(-1)
	if specCount > 0 {
		// Async marker goes on the first speculative page, so a stream
		// that reaches it refills ahead of consumption.
		markerAt = start + int64(need)
	}
	for w := 0; w < window; w++ {
		idx := start + int64(w)
		if pg := c.lookup(fs, idx); pg != nil {
			if w < need {
				c.hit(pg, fs)
			}
			continue
		}
		ready := winReady
		specPage := w >= need
		if !specPage {
			// Counted here rather than during partitioning: a page that
			// was cached then may have been evicted by this very window's
			// insertions, and every needed page must land in exactly one
			// of hits or misses.
			c.stats.Misses++
			ready = fgReady
		}
		pg := c.insert(fs, idx, ready, specPage)
		if idx == markerAt {
			pg.marker = true
		}
	}
}

// cachedRunBefore counts consecutively cached pages immediately below
// index (the history try_context_readahead consults), capped at max.
//
//kml:hotpath
func (c *Cache) cachedRunBefore(fs *fileState, index int64, max int) int {
	run := 0
	for i := index - 1; i >= 0 && run < max && c.lookup(fs, i) != nil; i-- {
		run++
	}
	return run
}

// hit processes a cache hit: touch the page, consume its flags, trigger
// async readahead from a marker, and wait for in-flight arrival.
//
// Ordering is load-bearing: the page moves to MRU and its state is read
// BEFORE asyncAhead runs, because the readahead's insertions may evict
// pages — in pathological window-vs-capacity ratios even this one — and
// the page must not be dereferenced (or re-linked) after that: an evicted
// page goes to the free list, and the same readahead may reuse it.
func (c *Cache) hit(pg *page, fs *fileState) {
	c.stats.Hits++
	c.lruTouch(pg)
	if pg.spec {
		pg.spec = false
		c.stats.SpecUsed++
	}
	marker := pg.marker
	pg.marker = false
	readyAt := pg.readyAt
	if marker {
		c.asyncAhead(fs) // pg may be gone, or reused, after this
	}
	if readyAt > c.clk.Now() {
		c.stats.WaitHits++
		c.stats.WaitTime += readyAt - c.clk.Now()
		c.dev.Wait(readyAt)
	}
}

// asyncAhead extends a detected stream: fetch the next window in the
// background and move the marker forward.
func (c *Cache) asyncAhead(fs *fileState) {
	st := &fs.ra
	max := c.raPagesFor(fs)
	if max <= 0 {
		return
	}
	st.size = nextWindow(st.size, max)
	start := st.frontier
	window := st.size
	if limit := fs.size; limit >= 0 {
		if start >= limit {
			return // stream reached EOF
		}
		if start+int64(window) > limit {
			window = int(limit - start)
		}
	}
	c.fetch = c.fetch[:0]
	for w := 0; w < window; w++ {
		if idx := start + int64(w); c.lookup(fs, idx) == nil {
			c.fetch = append(c.fetch, idx)
		}
	}
	st.start = start
	st.frontier = start + int64(window)
	if len(c.fetch) == 0 {
		return
	}
	ready := c.dev.AsyncRead(len(c.fetch))
	for i, idx := range c.fetch {
		pg := c.insert(fs, idx, ready, true)
		if i == 0 {
			pg.marker = true
		}
	}
}

// insert adds page idx of fs to the cache (evicting as needed), reusing
// an evicted page when there is one, and fires the add_to_page_cache
// tracepoint.
func (c *Cache) insert(fs *fileState, idx int64, readyAt time.Duration, spec bool) *page {
	if c.lookup(fs, idx) != nil {
		panic(fmt.Sprintf("pagecache: double insert of page %d of file %d", idx, fs.id))
	}
	c.evictFor(1)
	pg := c.free
	if pg != nil {
		c.free = pg.next
	} else {
		pg = new(page)
	}
	pg.key = pageKey{fs.id, idx}
	pg.readyAt, pg.spec = readyAt, spec
	if n := int(idx) + 1; n > len(fs.pages) {
		fs.pages = slices.Grow(fs.pages, n-len(fs.pages))[:n]
	}
	fs.pages[idx] = pg
	c.resident++
	c.lruPush(pg)
	c.stats.Inserted++
	if spec {
		c.stats.SpecInserted++
	}
	if c.tracer != nil {
		c.tracer.Emit(trace.Event{
			Point:  trace.AddToPageCache,
			Inode:  uint64(fs.id),
			Offset: idx,
			Time:   c.clk.Now(),
		})
	}
	return pg
}

// evictFor makes room for n new pages.
func (c *Cache) evictFor(n int) {
	for c.resident+n > c.cfg.CapacityPages && c.tail != nil {
		victim := c.tail
		if victim.dirty {
			// Must clean before reclaim; count it and write it back.
			c.dev.WriteAsync(1)
			c.stats.Writebacks++
			c.stats.DirtyEvicted++
			victim.dirty = false
			c.dirtyCount--
		}
		c.unmap(c.files[victim.key.file], victim.key.idx)
		c.stats.Evicted++
	}
}

// WritePages simulates a buffered write of pages [off, off+n) of file f:
// pages are allocated in the cache if absent and dirtied, firing the
// writeback_dirty_page tracepoint; background writeback runs when the
// dirty ratio is exceeded.
func (c *Cache) WritePages(f FileID, off int64, n int) {
	if n <= 0 || off < 0 {
		panic(fmt.Sprintf("pagecache: WritePages(%d, %d, %d)", f, off, n))
	}
	fs := c.file(f)
	for i := off; i < off+int64(n); i++ {
		pg := c.lookup(fs, i)
		if pg == nil {
			pg = c.insert(fs, i, c.clk.Now(), false)
		} else {
			c.lruTouch(pg)
			pg.spec = false
		}
		if !pg.dirty {
			pg.dirty = true
			c.dirtyCount++
			c.dirtyFIFO = append(c.dirtyFIFO, pg.key)
			if c.tracer != nil {
				c.tracer.Emit(trace.Event{
					Point:  trace.WritebackDirtyPage,
					Inode:  uint64(f),
					Offset: i,
					Time:   c.clk.Now(),
				})
			}
		}
	}
	c.maybeWriteback()
	// Writes also reset the file's sequential-read state: interleaved
	// writes break read streams, as in Linux.
	fs.ra.nextSeq = off + int64(n)
}

// maybeWriteback flushes dirty pages in FIFO order while over threshold.
func (c *Cache) maybeWriteback() {
	threshold := int(c.cfg.DirtyRatio * float64(c.cfg.CapacityPages))
	for c.dirtyCount > threshold {
		batch := 0
		for batch < c.cfg.WritebackBatch && len(c.dirtyFIFO) > 0 {
			key := c.dirtyFIFO[0]
			c.dirtyFIFO = c.dirtyFIFO[1:]
			var pg *page
			if fs := c.files[key.file]; fs != nil {
				pg = c.lookup(fs, key.idx)
			}
			if pg == nil || !pg.dirty {
				continue // evicted or already cleaned: lazy deletion
			}
			pg.dirty = false
			c.dirtyCount--
			batch++
		}
		if batch == 0 {
			return
		}
		c.dev.WriteAsync(batch)
		c.stats.Writebacks += uint64(batch)
	}
}

// SyncFile writes back all dirty pages of f and blocks until durable
// (the fsync path).
func (c *Cache) SyncFile(f FileID) {
	fs := c.files[f]
	if fs == nil {
		return
	}
	batch := 0
	for _, pg := range fs.pages {
		if pg != nil && pg.dirty {
			pg.dirty = false
			c.dirtyCount--
			batch++
		}
	}
	if batch > 0 {
		c.stats.Writebacks += uint64(batch)
		c.dev.WriteSync(batch)
	}
}

// SetFilePages records a file's size in pages so readahead windows clamp
// at EOF, as in Linux. The VFS layer calls it on growth and truncation.
func (c *Cache) SetFilePages(f FileID, pages int64) {
	if pages < 0 {
		panic("pagecache: negative file size")
	}
	c.file(f).size = pages
}

// SetFileReadahead overrides ra_pages for one file, in sectors (0 restores
// the device default). This is the "updating ra_pages for open files" path
// of the paper's Figure 1.
func (c *Cache) SetFileReadahead(f FileID, sectors int) {
	if sectors != 0 && sectors < blockdev.SectorsPerPage {
		sectors = blockdev.SectorsPerPage
	}
	c.file(f).raSec = sectors
}

// DropAll empties the cache (the "clear the cache after every run" step in
// the paper's evaluation), writing back dirty pages first. Every file's
// readahead state goes with its pages; its ra override and size stay.
func (c *Cache) DropAll() {
	batch := 0
	for _, fs := range c.files {
		for i, pg := range fs.pages {
			if pg == nil {
				continue
			}
			if pg.dirty {
				batch++
			}
			fs.pages[i] = nil
			c.release(pg)
		}
		fs.ra = raState{nextSeq: -1}
	}
	if batch > 0 {
		c.stats.Writebacks += uint64(batch)
		c.dev.WriteSync(batch)
	}
	c.resident = 0
	c.head, c.tail = nil, nil
	c.dirtyFIFO = nil
	c.dirtyCount = 0
}

// DropFile invalidates all cached pages of one file (truncate/remove path)
// and forgets its readahead state and settings. Dirty pages of the file
// are written back first.
func (c *Cache) DropFile(f FileID) {
	fs := c.files[f]
	if fs == nil {
		return
	}
	batch := 0
	for i, pg := range fs.pages {
		if pg == nil {
			continue
		}
		if pg.dirty {
			pg.dirty = false
			c.dirtyCount--
			batch++
		}
		c.unmap(fs, int64(i))
		c.stats.Evicted++
	}
	if batch > 0 {
		c.stats.Writebacks += uint64(batch)
		c.dev.WriteAsync(batch)
	}
	delete(c.files, f)
}

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats clears statistics without touching cache contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// HitMissCounts returns the cumulative hit and miss counters — the pair
// a decision trace samples at window boundaries to attribute the cache
// behaviour that followed each readahead change (dtrace StageOutcome).
// Counting matches Stats.HitRate: wait-hits are not hits.
//
//kml:hotpath
func (c *Cache) HitMissCounts() (hits, misses uint64) {
	return c.stats.Hits, c.stats.Misses
}

// HitRate returns hits/(hits+misses), or 0 before any access.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}
