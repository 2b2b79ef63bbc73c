package blockdev

import (
	"testing"
	"time"

	"repro/internal/clock"
)

func TestSyncReadAdvancesClock(t *testing.T) {
	clk := clock.New()
	d := New(NVMe(), clk)
	fgReady, winReady := d.SyncRead(2, 6)
	want := d.Profile().CmdOverhead + 6*d.Profile().PageTransfer
	if fgReady != want || winReady != want || clk.Now() != want {
		t.Errorf("fg %v win %v clock %v, want %v", fgReady, winReady, clk.Now(), want)
	}
	s := d.Stats()
	if s.SyncReads != 1 || s.PagesNeeded != 2 || s.PagesSpec != 4 {
		t.Errorf("stats %+v", s)
	}
}

func TestWasteDelaysNextRequest(t *testing.T) {
	clk := clock.New()
	d := New(SATASSD(), clk)
	prof := d.Profile()
	// A wasteful window costs its full occupancy before the next command.
	d.SyncRead(1, 32)
	t1 := clk.Now()
	want1 := prof.CmdOverhead + 32*prof.PageTransfer
	if t1 != want1 {
		t.Fatalf("first read done at %v, want %v", t1, want1)
	}
	d.SyncRead(1, 1)
	want2 := want1 + prof.CmdOverhead + prof.PageTransfer
	if clk.Now() != want2 {
		t.Errorf("second read done at %v, want %v", clk.Now(), want2)
	}
}

func TestAsyncReadDoesNotBlock(t *testing.T) {
	clk := clock.New()
	d := New(NVMe(), clk)
	ready := d.AsyncRead(16)
	if clk.Now() != 0 {
		t.Error("async read must not advance the caller's clock")
	}
	want := d.Profile().CmdOverhead + 16*d.Profile().PageTransfer
	if ready != want {
		t.Errorf("ready %v, want %v", ready, want)
	}
	if d.Stats().AsyncReads != 1 || d.Stats().PagesSpec != 16 {
		t.Errorf("stats %+v", d.Stats())
	}
}

func TestAsyncBackpressuresSync(t *testing.T) {
	clk := clock.New()
	d := New(SATASSD(), clk)
	ready := d.AsyncRead(64) // big background window
	fg, _ := d.SyncRead(1, 1)
	want := ready + d.Profile().CmdOverhead + d.Profile().PageTransfer
	if fg != want {
		t.Errorf("sync read behind async queue: %v, want %v", fg, want)
	}
}

func TestWait(t *testing.T) {
	clk := clock.New()
	d := New(NVMe(), clk)
	ready := d.AsyncRead(8)
	d.Wait(ready)
	if clk.Now() != ready {
		t.Errorf("clock %v, want %v", clk.Now(), ready)
	}
	// Waiting for the past is a no-op.
	d.Wait(ready - time.Microsecond)
	if clk.Now() != ready {
		t.Error("waiting for past must not move clock")
	}
}

func TestIdleDeviceStartsNow(t *testing.T) {
	clk := clock.New()
	d := New(NVMe(), clk)
	d.SyncRead(1, 1)
	// Let the caller do a lot of CPU work; device goes idle.
	clk.Advance(time.Second)
	start := clk.Now()
	fg, _ := d.SyncRead(1, 1)
	want := start + d.Profile().CmdOverhead + d.Profile().PageTransfer
	if fg != want {
		t.Errorf("idle restart: %v, want %v", fg, want)
	}
}

func TestWrites(t *testing.T) {
	clk := clock.New()
	d := New(SATASSD(), clk)
	done := d.WriteAsync(4)
	if clk.Now() != 0 {
		t.Error("async write must not block")
	}
	want := d.Profile().WriteCmdOverhead + 4*d.Profile().WritePageTransfer
	if done != want {
		t.Errorf("write done %v, want %v", done, want)
	}
	d.WriteSync(2)
	if clk.Now() <= want {
		t.Error("sync write must block until durable")
	}
	if d.Stats().PagesWrit != 6 {
		t.Errorf("pages written %d", d.Stats().PagesWrit)
	}
}

func TestSetReadaheadClamps(t *testing.T) {
	d := New(NVMe(), clock.New())
	if d.ReadaheadSectors() != DefaultReadaheadSectors {
		t.Error("default readahead")
	}
	d.SetReadahead(4) // below one page
	if d.ReadaheadSectors() != SectorsPerPage {
		t.Errorf("clamped low: %d", d.ReadaheadSectors())
	}
	d.SetReadahead(1 << 20)
	if d.ReadaheadSectors() != 16384 {
		t.Errorf("clamped high: %d", d.ReadaheadSectors())
	}
	d.SetReadahead(512)
	if d.ReadaheadSectors()/SectorsPerPage != 64 {
		t.Errorf("pages = %d", d.ReadaheadSectors()/SectorsPerPage)
	}
}

func TestProfiles(t *testing.T) {
	nvme, ssd := NVMe(), SATASSD()
	if nvme.PageTransfer >= ssd.PageTransfer {
		t.Error("NVMe must be faster than SATA")
	}
	readIOPS := func(p Profile) float64 { return 1 / (p.CmdOverhead + p.PageTransfer).Seconds() }
	if readIOPS(nvme) <= readIOPS(ssd) {
		t.Error("NVMe must sustain more IOPS")
	}
	if iops := readIOPS(ssd); iops < 40_000 || iops > 100_000 {
		t.Errorf("SATA IOPS ceiling %f implausible", iops)
	}
}

func TestInvalidArgsPanic(t *testing.T) {
	d := New(NVMe(), clock.New())
	for _, f := range []func(){
		func() { d.SyncRead(0, 1) },
		func() { d.SyncRead(2, 1) },
		func() { d.AsyncRead(0) },
		func() { d.WriteAsync(0) },
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

func TestResetStats(t *testing.T) {
	d := New(NVMe(), clock.New())
	d.SetReadahead(512)
	d.SyncRead(1, 2)
	d.ResetStats()
	if d.Stats() != (Stats{}) {
		t.Error("stats must clear")
	}
	if d.ReadaheadSectors() != 512 {
		t.Error("readahead must survive stat reset")
	}
}

func TestBusyTimeAccounting(t *testing.T) {
	clk := clock.New()
	d := New(NVMe(), clk)
	d.SyncRead(1, 4)
	want := d.Profile().CmdOverhead + 4*d.Profile().PageTransfer
	if d.Stats().BusyTime != want {
		t.Errorf("busy %v, want %v", d.Stats().BusyTime, want)
	}
	if d.busyUntil != want {
		t.Errorf("busyUntil %v", d.busyUntil)
	}
}
