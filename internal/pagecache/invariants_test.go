package pagecache

import (
	"math/rand"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/clock"
)

// TestRandomizedInvariants drives the cache with a random mix of reads,
// writes, syncs, readahead changes, hints and drops, checking structural
// invariants after every step: capacity respected, LRU list, page tables
// and free list consistent, dirty count consistent, clock monotonic. The
// last case runs 128-page readahead windows through an 8-page cache with
// mostly sequential reads, so a marker hit's async window evicts — and
// the free list hands back — the very page that was hit.
func TestRandomizedInvariants(t *testing.T) {
	for _, tc := range []struct {
		seed     int64
		capacity int
		ra       []int // per-file ra overrides to pick from, in sectors
		seqPct   int   // share of reads that continue the file's last one
	}{
		{1, 64, []int{0, 8, 64, 256, 1024}, 0},
		{2, 64, []int{0, 8, 64, 256, 1024}, 0},
		{3, 64, []int{0, 8, 64, 256, 1024}, 0},
		{4, 8, []int{1024}, 80},
	} {
		seed := tc.seed
		rng := rand.New(rand.NewSource(seed))
		clk := clock.New()
		dev := blockdev.New(blockdev.SATASSD(), clk)
		c := New(Config{CapacityPages: tc.capacity, DirtyRatio: 0.3, WritebackBatch: 8}, clk, dev, nil)
		c.SetFilePages(1, 500)
		c.SetFilePages(2, 500)
		next := map[FileID]int64{}
		last := clk.Now()
		for op := 0; op < 3000; op++ {
			f := FileID(1 + rng.Intn(2))
			off := int64(rng.Intn(490))
			if rng.Intn(100) < tc.seqPct && next[f] < 490 {
				off = next[f]
			}
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4:
				n := 1 + rng.Intn(3)
				c.ReadPages(f, off, n)
				next[f] = off + int64(n)
			case 5, 6:
				c.WritePages(f, off, 1+rng.Intn(3))
			case 7:
				c.SyncFile(f)
			case 8:
				c.SetFileReadahead(f, tc.ra[rng.Intn(len(tc.ra))])
			case 9:
				if rng.Intn(10) == 0 {
					c.DropFile(f)
				} else {
					c.SetFileReadahead(f, 0) // back to the device default
				}
			}
			if clk.Now() < last {
				t.Fatalf("seed %d op %d: clock went backward", seed, op)
			}
			last = clk.Now()
			checkInvariants(t, c, seed, op)
		}
	}
}

func checkInvariants(t *testing.T, c *Cache, seed int64, op int) {
	t.Helper()
	if c.resident > c.cfg.CapacityPages {
		t.Fatalf("seed %d op %d: %d pages exceed capacity %d", seed, op, c.resident, c.cfg.CapacityPages)
	}
	// Every slot's page carries that slot's key.
	held := make(map[*page]bool)
	dirty := 0
	for f, fs := range c.files {
		if fs.id != f {
			t.Fatalf("seed %d op %d: file %d's state says it is file %d", seed, op, f, fs.id)
		}
		for i, p := range fs.pages {
			if p == nil {
				continue
			}
			if p.key != (pageKey{f, int64(i)}) {
				t.Fatalf("seed %d op %d: slot %d of file %d holds page %+v", seed, op, i, f, p.key)
			}
			held[p] = true
			if p.dirty {
				dirty++
			}
		}
	}
	// Walk the LRU list; it must contain exactly the tables' pages.
	fwd := 0
	var prev *page
	for p := c.head; p != nil; p = p.next {
		if p.prev != prev {
			t.Fatalf("seed %d op %d: broken prev link", seed, op)
		}
		if !held[p] {
			t.Fatalf("seed %d op %d: LRU node %+v is in no table (dirty=%v spec=%v marker=%v)", seed, op, p.key, p.dirty, p.spec, p.marker)
		}
		prev = p
		fwd++
		if fwd > len(held)+1 {
			t.Fatalf("seed %d op %d: LRU cycle", seed, op)
		}
	}
	if fwd != len(held) || fwd != c.resident {
		t.Fatalf("seed %d op %d: LRU has %d nodes, the tables hold %d, the count says %d", seed, op, fwd, len(held), c.resident)
	}
	if c.tail != prev {
		t.Fatalf("seed %d op %d: tail mismatch", seed, op)
	}
	// No free page is reachable from the LRU or a table.
	free := 0
	for p := c.free; p != nil; p = p.next {
		if held[p] {
			t.Fatalf("seed %d op %d: free page %+v is still cached", seed, op, p.key)
		}
		if free++; free > c.cfg.CapacityPages {
			t.Fatalf("seed %d op %d: free list longer than the cache", seed, op)
		}
	}
	if dirty != c.dirtyCount {
		t.Fatalf("seed %d op %d: dirtyCount %d, actual %d", seed, op, c.dirtyCount, dirty)
	}
}

// TestReadaheadNeverCrossesEOF checks the window clamp under many sizes.
func TestReadaheadNeverCrossesEOF(t *testing.T) {
	clk := clock.New()
	dev := blockdev.New(blockdev.NVMe(), clk)
	dev.SetReadahead(1024)
	c := New(Config{CapacityPages: 4096}, clk, dev, nil)
	const filePages = 37
	c.SetFilePages(9, filePages)
	// Sequential scan to the end, repeatedly.
	for pass := 0; pass < 3; pass++ {
		for off := int64(0); off < filePages; off++ {
			c.ReadPages(9, off, 1)
		}
	}
	for idx := int64(filePages); idx < filePages+256; idx++ {
		if contains(c, 9, idx) {
			t.Fatalf("page %d beyond EOF (%d pages) was fetched", idx, filePages)
		}
	}
}

// TestStatsConsistency: hits+misses equals pages requested; inserted ≥
// misses (windows add speculative pages).
func TestStatsConsistency(t *testing.T) {
	clk := clock.New()
	dev := blockdev.New(blockdev.NVMe(), clk)
	c := New(Config{CapacityPages: 512}, clk, dev, nil)
	c.SetFilePages(1, 10000)
	rng := rand.New(rand.NewSource(4))
	requested := uint64(0)
	for i := 0; i < 500; i++ {
		n := 1 + rng.Intn(3)
		c.ReadPages(1, int64(rng.Intn(5000)), n)
		requested += uint64(n)
	}
	s := c.Stats()
	if s.Hits+s.Misses != requested {
		t.Errorf("hits %d + misses %d != requested %d", s.Hits, s.Misses, requested)
	}
	if s.Inserted < s.Misses {
		t.Errorf("inserted %d < misses %d", s.Inserted, s.Misses)
	}
	if s.SpecUsed > s.SpecInserted {
		t.Errorf("spec used %d > inserted %d", s.SpecUsed, s.SpecInserted)
	}
}
