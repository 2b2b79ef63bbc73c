package vfs

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/clock"
	"repro/internal/pagecache"
)

func newFS(capacityPages int) (*FS, *blockdev.Device, *clock.Virtual) {
	clk := clock.New()
	dev := blockdev.New(blockdev.NVMe(), clk)
	cache := pagecache.New(pagecache.Config{CapacityPages: capacityPages}, clk, dev, nil)
	return New(cache), dev, clk
}

func TestCreateOpenRemove(t *testing.T) {
	fs, _, _ := newFS(1024)
	f, err := fs.Create("a.sst")
	if err != nil {
		t.Fatal(err)
	}
	if f.Name() != "a.sst" || f.Ino() == 0 {
		t.Error("metadata")
	}
	if _, err := fs.Create("a.sst"); !errors.Is(err, ErrExist) {
		t.Error("duplicate create must fail")
	}
	got, err := fs.Open("a.sst")
	if err != nil || got != f {
		t.Error("open must return the same file")
	}
	if _, err := fs.Open("missing"); !errors.Is(err, ErrNotExist) {
		t.Error("open missing must fail")
	}
	if err := fs.Remove("a.sst"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Open("a.sst"); !errors.Is(err, ErrNotExist) {
		t.Error("removed file still opens")
	}
	if err := fs.Remove("a.sst"); !errors.Is(err, ErrNotExist) {
		t.Error("double remove must fail")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	fs, _, _ := newFS(1024)
	f, _ := fs.Create("data")
	payload := bytes.Repeat([]byte("hello kml "), 1000) // 10 KB: crosses pages
	if n, err := f.WriteAt(payload, 0); err != nil || n != len(payload) {
		t.Fatalf("write: %d, %v", n, err)
	}
	if f.Size() != int64(len(payload)) {
		t.Errorf("size = %d", f.Size())
	}
	got := make([]byte, len(payload))
	if n, err := f.ReadAt(got, 0); err != nil || n != len(payload) {
		t.Fatalf("read: %d, %v", n, err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("data corrupted")
	}
}

func TestReadAtOffsets(t *testing.T) {
	fs, _, _ := newFS(1024)
	f, _ := fs.Create("data")
	f.WriteAt([]byte("0123456789"), 0)
	buf := make([]byte, 4)
	if n, err := f.ReadAt(buf, 3); err != nil || n != 4 || string(buf) != "3456" {
		t.Errorf("mid read: %q, %d, %v", buf, n, err)
	}
	// Partial read at EOF.
	if n, err := f.ReadAt(buf, 8); n != 2 || err != io.EOF || string(buf[:n]) != "89" {
		t.Errorf("eof read: %q, %d, %v", buf[:n], n, err)
	}
	// Fully past EOF.
	if _, err := f.ReadAt(buf, 100); err != io.EOF {
		t.Errorf("past eof: %v", err)
	}
	// Negative offset.
	if _, err := f.ReadAt(buf, -1); err == nil {
		t.Error("negative offset must error")
	}
	// Empty read is free.
	if n, err := f.ReadAt(nil, 0); n != 0 || err != nil {
		t.Error("empty read")
	}
}

func TestSparseWriteGrows(t *testing.T) {
	fs, _, _ := newFS(1024)
	f, _ := fs.Create("sparse")
	f.WriteAt([]byte("x"), 10000)
	if f.Size() != 10001 {
		t.Errorf("size = %d", f.Size())
	}
	buf := make([]byte, 1)
	f.ReadAt(buf, 5000)
	if buf[0] != 0 {
		t.Error("hole must read as zero")
	}
}

func TestAppend(t *testing.T) {
	fs, _, _ := newFS(1024)
	f, _ := fs.Create("log")
	off1, _ := f.Append([]byte("aaa"))
	off2, _ := f.Append([]byte("bbb"))
	if off1 != 0 || off2 != 3 {
		t.Errorf("offsets %d, %d", off1, off2)
	}
	buf := make([]byte, 6)
	f.ReadAt(buf, 0)
	if string(buf) != "aaabbb" {
		t.Errorf("content %q", buf)
	}
}

func TestReadChargesDevice(t *testing.T) {
	fs, dev, clk := newFS(1024)
	f, _ := fs.Create("data")
	f.WriteAt(make([]byte, 64*1024), 0)
	f.Sync()
	fs.Cache().DropAll()
	before := clk.Now()
	buf := make([]byte, 4096)
	f.ReadAt(buf, 0)
	if clk.Now() == before {
		t.Error("cold read must cost device time")
	}
	if dev.Stats().SyncReads == 0 {
		t.Error("no device reads recorded")
	}
	// Warm read: free.
	before = clk.Now()
	f.ReadAt(buf, 0)
	if clk.Now() != before {
		t.Error("warm read must be free")
	}
}

func TestWriteDirtiesCache(t *testing.T) {
	fs, _, _ := newFS(1024)
	f, _ := fs.Create("data")
	f.WriteAt(make([]byte, 8192), 0)
	if fs.Cache().DirtyLen() != 2 {
		t.Errorf("dirty pages = %d, want 2", fs.Cache().DirtyLen())
	}
	f.Sync()
	if fs.Cache().DirtyLen() != 0 {
		t.Error("Sync must clean")
	}
}

func TestTruncate(t *testing.T) {
	fs, _, _ := newFS(1024)
	f, _ := fs.Create("data")
	f.WriteAt([]byte("0123456789"), 0)
	if err := f.Truncate(4); err != nil {
		t.Fatal(err)
	}
	if f.Size() != 4 {
		t.Errorf("size = %d", f.Size())
	}
	if _, err := f.ReadAt(make([]byte, 1), 5); err != io.EOF {
		t.Error("read past truncation must EOF")
	}
	if err := f.Truncate(8); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	f.ReadAt(buf, 4)
	if !bytes.Equal(buf, []byte{0, 0, 0, 0}) {
		t.Error("growth must zero-fill")
	}
	if err := f.Truncate(-1); err == nil {
		t.Error("negative truncate must error")
	}
}

func TestPerFileReadaheadPlumbing(t *testing.T) {
	fs, dev, _ := newFS(4096)
	dev.SetReadahead(256)
	f, _ := fs.Create("data")
	f.WriteAt(make([]byte, 1<<20), 0)
	f.Sync()
	fs.Cache().DropAll()
	f.SetReadahead(blockdev.SectorsPerPage)
	buf := make([]byte, 8192)
	f.ReadAt(buf, 500*4096)
	if fs.Cache().Stats().SpecInserted != 0 {
		t.Error("per-file readahead override not honored")
	}
}

func TestFadvisePlumbing(t *testing.T) {
	fs, dev, _ := newFS(4096)
	dev.SetReadahead(256)
	f, _ := fs.Create("data")
	f.WriteAt(make([]byte, 1<<20), 0)
	f.Sync()
	fs.Cache().DropAll()
	f.Fadvise(pagecache.HintRandom)
	buf := make([]byte, 8192)
	f.ReadAt(buf, 100*4096)
	if fs.Cache().Stats().SpecInserted != 0 {
		t.Error("fadvise hint not honored")
	}
}

func TestNamesAndTotalBytes(t *testing.T) {
	fs, _, _ := newFS(1024)
	a, _ := fs.Create("a")
	b, _ := fs.Create("b")
	a.WriteAt(make([]byte, 100), 0)
	b.WriteAt(make([]byte, 50), 0)
	if len(fs.Names()) != 2 {
		t.Error("names")
	}
	if fs.TotalBytes() != 150 {
		t.Errorf("total = %d", fs.TotalBytes())
	}
}

// TestReserveIsInvisible: Reserve is host-memory bookkeeping. It changes
// neither the file's size and contents nor anything simulated (cache
// state, device counters, virtual time), a file written after a Reserve
// behaves exactly like one that grew on its own — including zero-fill
// after a Truncate — and writes inside the reservation do not reallocate.
func TestReserveIsInvisible(t *testing.T) {
	fs, dev, clk := newFS(1024)
	plainFS, plainDev, plainClk := newFS(1024)
	f, _ := fs.Create("data")
	plain, _ := plainFS.Create("data")

	f.Reserve(1 << 20)
	if f.Size() != 0 || fs.Cache().Stats() != plainFS.Cache().Stats() || clk.Now() != plainClk.Now() {
		t.Fatal("Reserve on an empty file changed size, cache or clock")
	}
	payload := bytes.Repeat([]byte("0123456789abcdef"), 4096) // 64 KB
	for _, file := range []*File{f, plain} {
		file.WriteAt(payload, 0)
		file.Truncate(100)
		file.WriteAt([]byte("tail"), 8192) // regrows over stale bytes
		file.Sync()
	}
	f.Reserve(10)      // below the current capacity: no-op
	f.Reserve(2 << 20) // grows again, contents must carry over
	if f.Size() != plain.Size() {
		t.Fatalf("size %d, want %d", f.Size(), plain.Size())
	}
	got, want := make([]byte, f.Size()), make([]byte, plain.Size())
	f.ReadAt(got, 0)
	plain.ReadAt(want, 0)
	if !bytes.Equal(got, want) {
		t.Error("contents differ from a file that never reserved")
	}
	if fs.Cache().Stats() != plainFS.Cache().Stats() || dev.Stats() != plainDev.Stats() || clk.Now() != plainClk.Now() {
		t.Error("Reserve moved cache, device or clock state")
	}
	reserved := cap(f.data)
	f.Truncate(0)
	f.WriteAt(payload, 0)
	f.WriteAt(payload, int64(len(payload)))
	if reserved < 2<<20 || cap(f.data) != reserved {
		t.Errorf("capacity %d after writes inside a %d-byte reservation", cap(f.data), reserved)
	}
}
