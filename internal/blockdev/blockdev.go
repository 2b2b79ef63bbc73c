// Package blockdev simulates the block devices the paper evaluates on — an
// NVMe SSD and a SATA SSD — with a queued-device occupancy model over the
// virtual clock.
//
// # Model
//
// db_bench-style evaluations run many client threads, so the device
// operates with a full command queue and throughput is governed by device
// *occupancy*, not by individual command latency (which concurrency
// hides). Each request therefore charges the device timeline
//
//	CmdOverhead + pages × PageTransfer
//
// where CmdOverhead is the per-command cost that command queueing cannot
// eliminate (~IOPS ceiling) and PageTransfer is the bandwidth term. A
// synchronous (foreground) read advances the caller's virtual clock to the
// command's completion — the closed-loop backpressure of a saturated
// system — while asynchronous readahead only occupies the device, delaying
// later commands. Wasted readahead therefore hurts exactly as on real
// hardware: it consumes IOPS and bandwidth that foreground reads needed.
//
// Per-device readahead settings mirror the `blockdev --setra` ioctl the
// paper's KML application drives.
package blockdev

import (
	"fmt"
	"time"

	"repro/internal/clock"
)

// Size constants shared across the storage stack.
const (
	// SectorSize is the logical block size; readahead values are expressed
	// in sectors, as in `blockdev --setra`.
	SectorSize = 512
	// PageSize is the page-cache page size.
	PageSize = 4096
	// SectorsPerPage converts between the two units.
	SectorsPerPage = PageSize / SectorSize
	// DefaultReadaheadSectors is the Linux default (128 KB).
	DefaultReadaheadSectors = 256
)

// Profile is a device occupancy model.
type Profile struct {
	// Name identifies the device class in experiment output.
	Name string
	// CmdOverhead is the per-command occupancy that queueing cannot hide;
	// its reciprocal bounds small-read IOPS.
	CmdOverhead time.Duration
	// PageTransfer is the time to move one 4 KB page across the device
	// interface (the reciprocal of read bandwidth).
	PageTransfer time.Duration
	// WriteCmdOverhead and WritePageTransfer model the write path.
	WriteCmdOverhead  time.Duration
	WritePageTransfer time.Duration
}

// NVMe returns the NVMe SSD profile used by the paper's experiments:
// ~2.5 GB/s of bandwidth and a ~280K IOPS ceiling.
func NVMe() Profile {
	return Profile{
		Name:              "NVMe",
		CmdOverhead:       2 * time.Microsecond,
		PageTransfer:      1600 * time.Nanosecond,
		WriteCmdOverhead:  2 * time.Microsecond,
		WritePageTransfer: 2 * time.Microsecond,
	}
}

// SATASSD returns the SATA SSD profile ("SSD" in the paper's tables):
// ~450 MB/s of bandwidth and a ~58K IOPS ceiling. Wasted readahead costs
// ~5.5× more here than on NVMe, which is why the paper's SSD gains exceed
// its NVMe gains.
func SATASSD() Profile {
	return Profile{
		Name:              "SSD",
		CmdOverhead:       8 * time.Microsecond,
		PageTransfer:      9100 * time.Nanosecond,
		WriteCmdOverhead:  8 * time.Microsecond,
		WritePageTransfer: 11 * time.Microsecond,
	}
}

// Stats aggregates device activity.
type Stats struct {
	SyncReads   uint64
	AsyncReads  uint64
	PagesNeeded uint64 // pages the foreground actually waited for
	PagesSpec   uint64 // speculative (readahead) pages
	PagesWrit   uint64
	WaitTime    time.Duration // foreground time spent waiting on the device
	BusyTime    time.Duration // device occupancy
}

// Device is one simulated block device on a virtual clock.
type Device struct {
	prof      Profile
	clk       *clock.Virtual
	busyUntil time.Duration
	raSectors int
	stats     Stats
}

// New returns a device with the Linux-default readahead setting.
func New(prof Profile, clk *clock.Virtual) *Device {
	if clk == nil {
		panic("blockdev: nil clock")
	}
	return &Device{prof: prof, clk: clk, raSectors: DefaultReadaheadSectors}
}

// Clone returns a copy of d on clk: the same profile, readahead setting,
// statistics and occupancy (busyUntil), so the copy's next command queues
// exactly as d's would have.
func (d *Device) Clone(clk *clock.Virtual) *Device {
	if clk == nil {
		panic("blockdev: nil clock")
	}
	c := *d
	c.clk = clk
	return &c
}

// Profile returns the device's occupancy model.
func (d *Device) Profile() Profile { return d.prof }

// SetReadahead sets the device readahead in sectors (the `blockdev --setra`
// ioctl the KML readahead application issues). Values are clamped to
// [SectorsPerPage, 16384] — at least one page, at most 8 MB.
func (d *Device) SetReadahead(sectors int) {
	if sectors < SectorsPerPage {
		sectors = SectorsPerPage
	}
	if sectors > 16384 {
		sectors = 16384
	}
	d.raSectors = sectors
}

// ReadaheadSectors returns the current device readahead in sectors.
func (d *Device) ReadaheadSectors() int { return d.raSectors }

// occupy reserves the device for a read of n pages and returns the
// command's completion time.
func (d *Device) occupy(n int) time.Duration {
	start := d.clk.Now()
	if d.busyUntil > start {
		start = d.busyUntil
	}
	done := start + d.prof.CmdOverhead + time.Duration(n)*d.prof.PageTransfer
	d.stats.BusyTime += done - start
	d.busyUntil = done
	return done
}

// SyncRead issues a foreground read: the caller needs fgPages now, and the
// readahead engine decided to fetch windowPages ≥ fgPages in the same
// command. The virtual clock advances to the command's completion (the
// saturated closed-loop backpressure — see the package comment), which is
// also when all fetched pages become valid.
func (d *Device) SyncRead(fgPages, windowPages int) (fgReady, windowReady time.Duration) {
	if fgPages <= 0 || windowPages < fgPages {
		panic(fmt.Sprintf("blockdev: SyncRead(%d, %d)", fgPages, windowPages))
	}
	done := d.occupy(windowPages)
	d.stats.SyncReads++
	d.stats.PagesNeeded += uint64(fgPages)
	d.stats.PagesSpec += uint64(windowPages - fgPages)
	d.stats.WaitTime += done - d.clk.Now()
	d.clk.AdvanceTo(done)
	return done, done
}

// AsyncRead issues a background readahead of windowPages. The caller's
// clock does not advance; the pages become available at the returned time.
func (d *Device) AsyncRead(windowPages int) (ready time.Duration) {
	if windowPages <= 0 {
		panic(fmt.Sprintf("blockdev: AsyncRead(%d)", windowPages))
	}
	ready = d.occupy(windowPages)
	d.stats.AsyncReads++
	d.stats.PagesSpec += uint64(windowPages)
	return ready
}

// Wait blocks the caller until t (used when a previously issued async page
// has not arrived yet).
func (d *Device) Wait(t time.Duration) {
	if t > d.clk.Now() {
		d.stats.WaitTime += t - d.clk.Now()
		d.clk.AdvanceTo(t)
	}
}

// WriteAsync queues a writeback of n pages; it occupies the device but does
// not block the caller (buffered writeback).
func (d *Device) WriteAsync(n int) (done time.Duration) {
	if n <= 0 {
		panic(fmt.Sprintf("blockdev: WriteAsync(%d)", n))
	}
	start := d.clk.Now()
	if d.busyUntil > start {
		start = d.busyUntil
	}
	done = start + d.prof.WriteCmdOverhead + time.Duration(n)*d.prof.WritePageTransfer
	d.stats.PagesWrit += uint64(n)
	d.stats.BusyTime += done - start
	d.busyUntil = done
	return done
}

// WriteSync writes n pages and blocks until durable (fsync path).
func (d *Device) WriteSync(n int) {
	done := d.WriteAsync(n)
	d.Wait(done)
}

// Stats returns a copy of the accumulated statistics.
func (d *Device) Stats() Stats { return d.stats }

// ResetStats clears the statistics (readahead setting is preserved).
func (d *Device) ResetStats() { d.stats = Stats{} }
