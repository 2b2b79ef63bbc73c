// Package vfs provides the file abstraction the simulated storage stack
// reads and writes through. It splits the two planes of the simulation:
//
//   - the data plane holds real file contents in memory, so SSTables, WALs,
//     and indexes are byte-exact, and
//   - the timing plane routes every access through the simulated page cache
//     (and thus the readahead engine and block device), so each read costs
//     what it would cost on the modeled hardware.
//
// The per-file control surface the paper's KML application drives,
// readahead (ra_pages), lives in the page cache, keyed by the file's inode.
package vfs

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/blockdev"
	"repro/internal/pagecache"
)

// ErrExist reports that a file already exists.
var ErrExist = errors.New("vfs: file exists")

// ErrNotExist reports a missing file.
var ErrNotExist = errors.New("vfs: file does not exist")

// FS is a flat simulated filesystem.
type FS struct {
	cache   *pagecache.Cache
	nextIno pagecache.FileID
	byName  map[string]*File
}

// New returns an empty filesystem over cache.
func New(cache *pagecache.Cache) *FS {
	if cache == nil {
		panic("vfs: nil cache")
	}
	return &FS{cache: cache, nextIno: 1, byName: make(map[string]*File)}
}

// File is an open simulated file. All opens of a name share one File (and
// therefore one inode, size, and readahead state), like an inode cache.
type File struct {
	fs   *FS
	name string
	ino  pagecache.FileID
	data []byte
	// dirty is how far data's backing array has ever been written: bytes
	// in [len(data), dirty) may be stale from before a Truncate, bytes at
	// or beyond dirty are still zero from the allocation.
	dirty int64
}

// Create makes a new empty file.
func (fs *FS) Create(name string) (*File, error) {
	if _, ok := fs.byName[name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrExist, name)
	}
	f := &File{fs: fs, name: name, ino: fs.nextIno}
	fs.nextIno++
	fs.byName[name] = f
	return f, nil
}

// Open returns the file registered under name.
func (fs *FS) Open(name string) (*File, error) {
	f, ok := fs.byName[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	return f, nil
}

// Remove deletes a file and drops its cached pages.
func (fs *FS) Remove(name string) error {
	f, ok := fs.byName[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	delete(fs.byName, name)
	fs.cache.DropFile(f.ino)
	return nil
}

// Names returns the file names currently registered (unordered).
func (fs *FS) Names() []string {
	names := make([]string, 0, len(fs.byName))
	for n := range fs.byName {
		names = append(names, n)
	}
	return names
}

// Name returns the file's name.
func (f *File) Name() string { return f.name }

// Size returns the current file size in bytes.
func (f *File) Size() int64 { return int64(len(f.data)) }

// ReadAt reads len(p) bytes at offset off, charging the page cache for
// every touched page. Short reads at EOF return io.EOF like os.File.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("vfs: negative offset %d", off)
	}
	if len(p) == 0 {
		return 0, nil
	}
	if off >= f.Size() {
		return 0, io.EOF
	}
	n := copy(p, f.data[off:])
	f.chargeRead(off, n)
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// View is ReadAt without the copy: it charges the page cache exactly as
// ReadAt(p[:n], off) would — the same pages, the same short read and
// io.EOF at end of file, the same errors — and returns the file's own
// bytes instead of copying them out. The view is capacity-clipped, so an
// append to it cannot reach the file.
//
// The view is read-only: the caller must not write through it. It stays
// valid as long as the caller holds it, and it shows later writes to the
// range it covers, so it is meant for files that are write-once, such as
// an SSTable after Finish; a copy is what ReadAt is for.
func (f *File) View(off int64, n int) ([]byte, error) {
	if off < 0 {
		return nil, fmt.Errorf("vfs: negative offset %d", off)
	}
	if n < 0 {
		return nil, fmt.Errorf("vfs: negative length %d", n)
	}
	if n == 0 {
		return nil, nil
	}
	if off >= f.Size() {
		return nil, io.EOF
	}
	end := off + int64(n)
	if end > f.Size() {
		end = f.Size()
	}
	f.chargeRead(off, int(end-off))
	view := f.data[off:end:end]
	if len(view) < n {
		return view, io.EOF
	}
	return view, nil
}

// chargeRead routes a read of n > 0 bytes at off through the page cache.
func (f *File) chargeRead(off int64, n int) {
	firstPage := off / blockdev.PageSize
	lastPage := (off + int64(n) - 1) / blockdev.PageSize
	f.fs.cache.ReadPages(f.ino, firstPage, int(lastPage-firstPage)+1)
}

// WriteAt writes p at offset off, growing the file as needed and dirtying
// the touched pages.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("vfs: negative offset %d", off)
	}
	if len(p) == 0 {
		return 0, nil
	}
	end := off + int64(len(p))
	if end > int64(len(f.data)) {
		f.grow(end)
		f.fs.cache.SetFilePages(f.ino, (end+blockdev.PageSize-1)/blockdev.PageSize)
	}
	copy(f.data[off:], p)
	firstPage := off / blockdev.PageSize
	lastPage := (end - 1) / blockdev.PageSize
	f.fs.cache.WritePages(f.ino, firstPage, int(lastPage-firstPage)+1)
	return len(p), nil
}

// grow extends the file to size bytes, zero-filling the new region and
// amortizing reallocation (append-heavy WAL/SSTable writes would otherwise
// be quadratic).
func (f *File) grow(size int64) {
	old := int64(len(f.data))
	if size <= int64(cap(f.data)) {
		f.data = f.data[:size]
		// Only bytes a write left before a Truncate need clearing; the
		// rest of the array is still zero from its allocation.
		if stale := min(size, f.dirty); stale > old {
			clear(f.data[old:stale])
		}
		f.dirty = max(f.dirty, size)
		return
	}
	newCap := int64(cap(f.data)) * 2
	if newCap < size {
		newCap = size
	}
	grown := make([]byte, size, newCap)
	copy(grown, f.data[:old])
	f.data = grown
	f.dirty = size
}

// Reserve is a capacity hint: it makes room for the file to grow to n
// bytes without reallocating, so a writer that knows roughly how much it
// will write (a table build) skips grow's doubling-and-copying. It is
// host-memory bookkeeping only — Size, the page cache and virtual time are
// untouched — and a hint that turns out short just falls back to grow.
func (f *File) Reserve(n int64) {
	if n <= int64(cap(f.data)) {
		return
	}
	grown := make([]byte, len(f.data), n)
	copy(grown, f.data)
	f.data = grown
	f.dirty = int64(len(f.data))
}

// Append writes p at the end of the file and returns the offset the data
// landed at.
func (f *File) Append(p []byte) (int64, error) {
	off := f.Size()
	_, err := f.WriteAt(p, off)
	return off, err
}

// Sync writes back all dirty pages of the file and blocks until durable.
func (f *File) Sync() { f.fs.cache.SyncFile(f.ino) }

// Truncate resizes the file; shrinking drops the file's cached pages
// beyond the new size by invalidating the whole file (coarse, like many
// real filesystems' truncate paths).
func (f *File) Truncate(size int64) error {
	if size < 0 {
		return fmt.Errorf("vfs: negative size %d", size)
	}
	switch {
	case size < f.Size():
		f.data = f.data[:size]
		f.fs.cache.DropFile(f.ino)
		f.fs.cache.SetFilePages(f.ino, (size+blockdev.PageSize-1)/blockdev.PageSize)
	case size > f.Size():
		f.grow(size)
		f.fs.cache.SetFilePages(f.ino, (size+blockdev.PageSize-1)/blockdev.PageSize)
	}
	return nil
}
