// The recorder: an in-memory staging image of the on-disk ring plus a
// background flusher. Record — the only call on a latency-sensitive
// path — encodes the record header, checksums the payload, and copies
// both into the preallocated staging ring under a mutex: no
// allocation, no float, no I/O. The flusher goroutine wakes on a fixed
// interval, copies the dirty span out of the staging ring under the
// lock, and writes it back with WriteAt OUTSIDE the lock, so a slow
// disk never blocks Record for longer than one memcpy. Staleness after
// a crash is therefore bounded by the flush interval (plus the page
// cache unless -blackbox-fsync forces it through on every flush).
package blackbox

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mserve"
)

// DefaultSize is the default black-box file size (header + ring).
const DefaultSize = 4 << 20

// DefaultFlushInterval bounds staleness when Config.FlushInterval is 0.
const DefaultFlushInterval = 250 * time.Millisecond

// Config parameterizes Open.
type Config struct {
	// Path of the black-box file. Created if missing; an existing valid
	// black box of the same geometry is resumed (its records survive
	// restarts until overwritten), anything else is recreated.
	Path string
	// Size is the total file size in bytes, header sector included.
	// 0 means DefaultSize; values are clamped to at least MinFileSize
	// and the ring is rounded down to a sector multiple.
	Size int64
	// FlushInterval is the background flusher period; 0 means
	// DefaultFlushInterval.
	FlushInterval time.Duration
	// FsyncEveryFlush forces fsync on every background flush instead of
	// only on Close — survives power loss, costs a disk barrier per
	// interval.
	FsyncEveryFlush bool
}

// Recorder owns one black-box file.
type Recorder struct {
	path       string
	f          *os.File
	fsyncEvery bool
	interval   time.Duration

	mu      sync.Mutex
	ring    []byte // staging image of the on-disk ring
	w       int    // next write offset within ring (sector-aligned)
	seq     uint64 // next record seq
	records uint64
	drops   uint64
	torn    uint64 // torn records observed when resuming
	dirty   bool
	dirtyLo int
	dirtyHi int
	closed  bool

	flushMu  sync.Mutex // serializes flushers (ticker + MsgBlackbox sync)
	flushBuf []byte

	flushes     atomic.Uint64
	lastFlushNS atomic.Int64

	startOnce sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// Open creates or resumes the black box at cfg.Path. A fresh file is
// sized, headered, and synced before Open returns, so even an
// immediate SIGKILL leaves a scannable (empty) box behind.
func Open(cfg Config) (*Recorder, error) {
	if cfg.Path == "" {
		return nil, errors.New("blackbox: empty path")
	}
	size := cfg.Size
	if size == 0 {
		size = DefaultSize
	}
	if size < MinFileSize {
		size = MinFileSize
	}
	ringBytes := (size - FileHeaderSize) &^ (SectorSize - 1)
	interval := cfg.FlushInterval
	if interval <= 0 {
		interval = DefaultFlushInterval
	}
	f, err := os.OpenFile(cfg.Path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("blackbox: %w", err)
	}
	r := &Recorder{
		path:       cfg.Path,
		f:          f,
		fsyncEvery: cfg.FsyncEveryFlush,
		interval:   interval,
		ring:       make([]byte, ringBytes),
		seq:        1,
	}
	if err := r.initFile(ringBytes); err != nil {
		f.Close()
		return nil, err
	}
	return r, nil
}

// initFile resumes an existing compatible black box (loading its ring
// into the staging image and continuing after its newest record) or
// lays down a fresh one.
func (r *Recorder) initFile(ringBytes int64) error {
	hdr := make([]byte, FileHeaderSize)
	if n, err := r.f.ReadAt(hdr, 0); err == nil && n == FileHeaderSize {
		if prevRing, _, herr := parseFileHeader(hdr); herr == nil && prevRing == ringBytes {
			if n, err := r.f.ReadAt(r.ring, FileHeaderSize); err == nil && n == len(r.ring) {
				recs, torn := scanRing(r.ring, FileHeaderSize)
				r.torn = uint64(torn)
				if len(recs) > 0 {
					last := recs[len(recs)-1]
					r.seq = last.Seq + 1
					end := int(last.Offset-FileHeaderSize) + alignSector(RecordHeaderSize+len(last.Payload))
					if end <= len(r.ring) {
						r.w = end % len(r.ring)
					}
				}
				return nil
			}
		}
	}
	// Fresh box: size the file, zero the ring, write + sync the header
	// so the file is scannable from the first instant.
	if err := r.f.Truncate(0); err != nil {
		return fmt.Errorf("blackbox: %w", err)
	}
	if err := r.f.Truncate(FileHeaderSize + ringBytes); err != nil {
		return fmt.Errorf("blackbox: %w", err)
	}
	putFileHeader(hdr, ringBytes, time.Now().UnixNano())
	if _, err := r.f.WriteAt(hdr, 0); err != nil {
		return fmt.Errorf("blackbox: %w", err)
	}
	if err := r.f.Sync(); err != nil {
		return fmt.Errorf("blackbox: %w", err)
	}
	return nil
}

// RingBytes returns the ring capacity in bytes.
func (r *Recorder) RingBytes() int64 { return int64(len(r.ring)) }

// Record appends one record to the staging ring: header encode, payload
// CRC, one copy. It allocates nothing and does no I/O — durability is
// the flusher's job. Oversized payloads are dropped (counted in
// Status.Dropped) and records after Close are dropped silently; both
// return false.
//
//kml:hotpath
func (r *Recorder) Record(kind Kind, timeNanos int64, payload []byte) bool {
	if len(payload) > MaxRecordPayload {
		r.mu.Lock()
		r.drops++
		r.mu.Unlock()
		return false
	}
	need := RecordHeaderSize + len(payload)
	total := alignSector(need)
	crc := crc32.ChecksumIEEE(payload)
	r.mu.Lock()
	if r.closed || total > len(r.ring) {
		r.drops++
		r.mu.Unlock()
		return false
	}
	if r.w+total > len(r.ring) {
		// Never wrap a record across the ring end: restart at 0 and let
		// the stale tail age out.
		r.w = 0
	}
	w := r.w
	putRecordHeader(r.ring[w:w+RecordHeaderSize], kind, r.seq, timeNanos, len(payload), crc)
	copy(r.ring[w+RecordHeaderSize:], payload)
	for i := w + need; i < w+total; i++ {
		r.ring[i] = 0
	}
	if !r.dirty {
		r.dirty = true
		r.dirtyLo, r.dirtyHi = w, w+total
	} else {
		if w < r.dirtyLo {
			r.dirtyLo = w
		}
		if w+total > r.dirtyHi {
			r.dirtyHi = w + total
		}
	}
	r.w = w + total
	r.seq++
	r.records++
	r.mu.Unlock()
	return true
}

// Flush writes the dirty span of the staging ring back to disk. The
// copy out of the ring happens under the record lock; the WriteAt does
// not. With sync (or FsyncEveryFlush) the data is forced through the
// page cache.
func (r *Recorder) Flush(sync bool) error {
	r.flushMu.Lock()
	defer r.flushMu.Unlock()
	r.mu.Lock()
	dirty := r.dirty
	var lo int
	if dirty {
		lo = r.dirtyLo
		r.flushBuf = append(r.flushBuf[:0], r.ring[r.dirtyLo:r.dirtyHi]...)
		r.dirty = false
	}
	r.mu.Unlock()
	if dirty {
		if _, err := r.f.WriteAt(r.flushBuf, FileHeaderSize+int64(lo)); err != nil {
			return fmt.Errorf("blackbox: %w", err)
		}
	}
	if sync || (dirty && r.fsyncEvery) {
		if err := r.f.Sync(); err != nil {
			return fmt.Errorf("blackbox: %w", err)
		}
	}
	if dirty {
		r.flushes.Add(1)
		r.lastFlushNS.Store(time.Now().UnixNano())
	}
	return nil
}

// Start launches the background flusher. When capture is non-nil the
// flusher calls it immediately before each flush (the sampler hooks in
// here), so every interval persists the freshest possible state.
// Start is idempotent; Close stops the flusher.
func (r *Recorder) Start(capture func(nowNanos int64)) {
	r.startOnce.Do(func() {
		r.stop = make(chan struct{})
		r.done = make(chan struct{})
		go func() {
			defer close(r.done)
			t := time.NewTicker(r.interval)
			defer t.Stop()
			for {
				select {
				case <-r.stop:
					return
				case now := <-t.C:
					if capture != nil {
						capture(now.UnixNano())
					}
					_ = r.Flush(false)
				}
			}
		}()
	})
}

// FinalFlush synchronously persists everything staged and fsyncs,
// regardless of flusher state. It is the panic/SIGQUIT hook: safe to
// call at any time, from any goroutine, repeatedly.
func (r *Recorder) FinalFlush() error { return r.Flush(true) }

// Close stops the flusher, performs a final synced flush, and closes
// the file. Records arriving after Close are dropped.
func (r *Recorder) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.mu.Unlock()
	if r.stop != nil {
		close(r.stop)
		<-r.done
	}
	err := r.Flush(true)
	if cerr := r.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("blackbox: %w", cerr)
	}
	return err
}

// Status snapshots the recorder's counters as the MsgBlackbox payload.
func (r *Recorder) Status() mserve.BlackboxStatus {
	r.mu.Lock()
	st := mserve.BlackboxStatus{
		Enabled:    true,
		Records:    r.records,
		Dropped:    r.drops,
		RingBytes:  uint64(len(r.ring)),
		TornAtOpen: r.torn,
		Path:       r.path,
	}
	r.mu.Unlock()
	st.Flushes = r.flushes.Load()
	st.LastFlushNanos = r.lastFlushNS.Load()
	return st
}
