package vfs

import (
	"bytes"
	"errors"
	"fmt"
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
	if f.Name() != "a.sst" || f.ino == 0 {
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
	fs.cache.DropAll()
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
	fs, dev, _ := newFS(1024)
	f, _ := fs.Create("data")
	f.WriteAt(make([]byte, 8192), 0)
	if n := dev.Stats().PagesWrit; n != 0 {
		t.Errorf("a buffered write reached the device: %d pages", n)
	}
	f.Sync()
	if n := dev.Stats().PagesWrit; n != 2 {
		t.Errorf("Sync wrote %d dirty pages, want 2", n)
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

// TestDeviceReadaheadPlumbing: a file read goes through the page cache's
// readahead engine, so a device setting of one page fetches nothing
// speculative.
func TestDeviceReadaheadPlumbing(t *testing.T) {
	fs, dev, _ := newFS(4096)
	f, _ := fs.Create("data")
	f.WriteAt(make([]byte, 1<<20), 0)
	f.Sync()
	fs.cache.DropAll()
	dev.SetReadahead(blockdev.SectorsPerPage)
	buf := make([]byte, 8192)
	f.ReadAt(buf, 500*4096)
	if fs.cache.Stats().SpecInserted != 0 {
		t.Error("device readahead setting not honored")
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
	var total int64
	for _, name := range fs.Names() {
		f, err := fs.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		total += f.Size()
	}
	if total != 150 {
		t.Errorf("total = %d", total)
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
	if f.Size() != 0 || fs.cache.Stats() != plainFS.cache.Stats() || clk.Now() != plainClk.Now() {
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
	if fs.cache.Stats() != plainFS.cache.Stats() || dev.Stats() != plainDev.Stats() || clk.Now() != plainClk.Now() {
		t.Error("Reserve moved cache, device or clock state")
	}
	// The Truncate above shrank the file inside its capacity and the write
	// at 8192 regrew it over payload bytes: the gap must read as zeros.
	if i := bytes.IndexFunc(got[100:8192], func(r rune) bool { return r != 0 }); i >= 0 {
		t.Errorf("byte %d of the gap left by Truncate reads %q, want zero", 100+i, got[100+i])
	}
	reserved := cap(f.data)
	f.Truncate(0)
	f.WriteAt(payload, 0)
	f.WriteAt(payload, int64(len(payload)))
	if reserved < 2<<20 || cap(f.data) != reserved {
		t.Errorf("capacity %d after writes inside a %d-byte reservation", cap(f.data), reserved)
	}

	// A fresh reservation is zero from its allocation, so a write inside
	// it clears nothing: the dirty mark, which bounds what grow clears,
	// covers exactly what has been written.
	fresh, _ := fs.Create("fresh")
	fresh.Reserve(1 << 16)
	if fresh.dirty != 0 {
		t.Errorf("dirty mark %d after Reserve on an empty file, want 0", fresh.dirty)
	}
	fresh.WriteAt([]byte("x"), 4096)
	if fresh.dirty != 4097 {
		t.Errorf("dirty mark %d after a 1-byte write at 4096, want 4097", fresh.dirty)
	}
	// Shrink below the written byte and regrow past it: that byte is now
	// stale and must be cleared, the never-written rest need not be.
	fresh.Truncate(10)
	fresh.WriteAt([]byte("y"), 20000)
	if fresh.dirty != 20001 {
		t.Errorf("dirty mark %d after regrowing to 20001, want 20001", fresh.dirty)
	}
	gap := make([]byte, 20000-10)
	fresh.ReadAt(gap, 10)
	if i := bytes.IndexByte(gap, 'x'); i >= 0 {
		t.Errorf("stale byte survived at %d", 10+i)
	}
}

// TestViewChargesLikeReadAt runs the same reads through View on one file
// and through ReadAt on its twin in a second filesystem: the bytes,
// errors, page-cache and device counters and virtual clock must agree at
// every step, and every view must be the file's own bytes, clipped so an
// append cannot reach past it.
func TestViewChargesLikeReadAt(t *testing.T) {
	fs, dev, clk := newFS(1024)
	twinFS, twinDev, twinClk := newFS(1024)
	content := make([]byte, 3*blockdev.PageSize+500)
	for i := range content {
		content[i] = byte(i * 7)
	}
	f, _ := fs.Create("data")
	twin, _ := twinFS.Create("data")
	for _, file := range []*File{f, twin} {
		file.WriteAt(content, 0)
		file.Sync()
		file.fs.cache.DropAll()
	}
	size := int64(len(content))
	cases := []struct {
		name string
		off  int64
		n    int
	}{
		{"in range", 100, 200},
		{"same range again (warm)", 100, 200},
		{"page-straddling", blockdev.PageSize - 50, 100},
		{"whole pages", blockdev.PageSize, 2 * blockdev.PageSize},
		{"short at EOF", size - 10, 100},
		{"from zero past EOF", 0, int(size) + 1},
		{"at EOF", size, 1},
		{"past EOF", size + 4096, 10},
		{"zero length", 50, 0},
		{"zero length past EOF", size + 100, 0},
		{"negative offset", -1, 10},
		{"negative offset, zero length", -1, 0},
	}
	for _, c := range cases {
		view, viewErr := f.View(c.off, c.n)
		p := make([]byte, c.n)
		n, readErr := twin.ReadAt(p, c.off)
		if fmt.Sprint(viewErr) != fmt.Sprint(readErr) {
			t.Errorf("%s: View error %v, ReadAt error %v", c.name, viewErr, readErr)
		}
		if !bytes.Equal(view, p[:n]) {
			t.Errorf("%s: View returned %d bytes, ReadAt %d, or they differ", c.name, len(view), n)
		}
		if cap(view) != len(view) {
			t.Errorf("%s: view has len %d but cap %d", c.name, len(view), cap(view))
		}
		if len(view) > 0 && &view[0] != &f.data[c.off] {
			t.Errorf("%s: view is a copy, not the file's bytes", c.name)
		}
		if fs.cache.Stats() != twinFS.cache.Stats() || dev.Stats() != twinDev.Stats() || clk.Now() != twinClk.Now() {
			t.Fatalf("%s: View charged the cache, device or clock differently from ReadAt", c.name)
		}
	}
	if dev.Stats().SyncReads == 0 {
		t.Error("no case reached the device; the cases compare nothing")
	}
	if _, err := f.View(0, -1); err == nil {
		t.Error("negative length must error")
	}
	if fs.cache.Stats() != twinFS.cache.Stats() || clk.Now() != twinClk.Now() {
		t.Error("a rejected View charged the cache or clock")
	}
}

// cowOps are the writes that must move a file sharing its bytes with a
// clone onto a private copy. Truncate shrinks and regrows inside the
// capacity, which clears the bytes between; Reserve is followed by a
// write inside the reservation.
var cowOps = []struct {
	name string
	op   func(*File)
}{
	{"write", func(f *File) { f.WriteAt([]byte("written"), 10) }},
	{"truncate", func(f *File) { f.Truncate(50); f.Truncate(300) }},
	{"append", func(f *File) { f.Append([]byte("appended")) }},
	{"reserve", func(f *File) { f.Reserve(1 << 16); f.WriteAt([]byte("reserved"), f.Size()) }},
}

// contents returns every file of fs by name, read with ReadAt.
func contents(t *testing.T, fs *FS) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, name := range fs.Names() {
		f, _ := fs.Open(name)
		p := make([]byte, f.Size())
		if _, err := f.ReadAt(p, 0); err != nil && len(p) > 0 {
			t.Fatal(err)
		}
		out[name] = string(p)
	}
	return out
}

// TestCloneCopiesOnWrite: a clone shares its source's bytes until a write
// (WriteAt, Truncate, Append, Reserve) to either side, and no write on one
// side reaches the other: not from a clone to its frozen source or to a
// sibling clone, not from an unfrozen source to its clone, and not back.
// Each written file ends as the same write leaves a file that was never
// cloned. A frozen filesystem refuses every write.
func TestCloneCopiesOnWrite(t *testing.T) {
	content := make([]byte, 3*blockdev.PageSize+100)
	for i := range content {
		content[i] = byte(i*13 + 1)
	}
	filled := func() *FS {
		fs, _, _ := newFS(1024)
		for _, c := range cowOps {
			f, _ := fs.Create(c.name)
			f.WriteAt(content, 0)
		}
		return fs
	}
	// want is what each op leaves in a file that was never cloned.
	plain := filled()
	for _, c := range cowOps {
		f, _ := plain.Open(c.name)
		c.op(f)
	}
	want := contents(t, plain)
	untouched := contents(t, filled())
	clone := func(src *FS) *FS {
		clk := clock.New()
		return src.Clone(pagecache.New(pagecache.Config{CapacityPages: 1024}, clk, blockdev.New(blockdev.NVMe(), clk), nil))
	}
	writeAll := func(fs *FS) {
		for _, c := range cowOps {
			f, _ := fs.Open(c.name)
			c.op(f)
		}
	}
	same := func(what string, got, want map[string]string) {
		t.Helper()
		for name := range want {
			if got[name] != want[name] {
				t.Fatalf("%s: file %q holds %d bytes, not the %d expected", what, name, len(got[name]), len(want[name]))
			}
		}
	}

	template := filled()
	template.Freeze()
	a, b := clone(template), clone(template)
	for _, c := range cowOps {
		src, _ := template.Open(c.name)
		fa, _ := a.Open(c.name)
		if &fa.data[0] != &src.data[0] || cap(fa.data) != len(fa.data) {
			t.Fatalf("%s: a clone's file does not share its source's bytes, capacity-clipped", c.name)
		}
	}
	writeAll(a)
	same("clone a after its writes", contents(t, a), want)
	same("template after clone a's writes", contents(t, template), untouched)
	same("sibling b after clone a's writes", contents(t, b), untouched)
	writeAll(b)
	same("sibling b after its writes", contents(t, b), want)
	same("clone a after sibling b's writes", contents(t, a), want)
	same("template after both clones' writes", contents(t, template), untouched)

	source := filled()
	c := clone(source)
	writeAll(source)
	same("unfrozen source after its writes", contents(t, source), want)
	same("its clone after the source's writes", contents(t, c), untouched)
	writeAll(c)
	same("the clone after its writes", contents(t, c), want)
	same("the source after the clone's writes", contents(t, source), want)

	for _, w := range []struct {
		name string
		do   func()
	}{
		{"WriteAt", func() { f, _ := template.Open("write"); f.WriteAt([]byte("x"), 0) }},
		{"Truncate", func() { f, _ := template.Open("truncate"); f.Truncate(0) }},
		{"Append", func() { f, _ := template.Open("append"); f.Append([]byte("x")) }},
		{"Reserve", func() { f, _ := template.Open("reserve"); f.Reserve(1 << 20) }},
		{"Create", func() { template.Create("new") }},
		{"Remove", func() { template.Remove("write") }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a frozen filesystem did not panic", w.name)
				}
			}()
			w.do()
		}()
	}
	same("template after the refused writes", contents(t, template), untouched)
}
