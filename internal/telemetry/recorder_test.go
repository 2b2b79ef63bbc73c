package telemetry

import (
	"fmt"
	"sync"
	"testing"
)

type rec struct {
	Seq     int
	Version uint64
}

// TestFlightRecorder pins the one keep-latest ring's contract: retention,
// capacity rounding, and every ReadNewer cursor case (n, next, missed).
// Record i (0-based cursor position) carries the value i+1.
func TestFlightRecorder(t *testing.T) {
	type read struct {
		since        uint64
		dst          int
		want         []int
		next, missed uint64
	}
	cases := []struct {
		name     string
		capacity int
		writes   int
		wantCap  int
		snapshot []int
		evicted  uint64
		reads    []read
	}{
		{
			name: "keep-latest overflow, oldest first", capacity: 4, writes: 6,
			wantCap: 4, snapshot: []int{3, 4, 5, 6}, evicted: 2,
			reads: []read{{since: 2, dst: 4, want: []int{3, 4, 5, 6}, next: 6}},
		},
		{
			name: "capacity rounds up to a power of two", capacity: 5, writes: 3,
			wantCap: 8, snapshot: []int{1, 2, 3},
			reads: []read{{since: 0, dst: 8, want: []int{1, 2, 3}, next: 3}},
		},
		{
			name: "empty", capacity: 4, writes: 0,
			wantCap: 4, snapshot: []int{},
			reads: []read{{since: 0, dst: 4, want: []int{}, next: 0}},
		},
		{
			name: "empty dst copies nothing", capacity: 4, writes: 9,
			wantCap: 4, snapshot: []int{6, 7, 8, 9}, evicted: 5,
			reads: []read{
				{since: 7, dst: 0, want: []int{}, next: 7},
				// Behind the horizon the cursor still advances past what was lost.
				{since: 2, dst: 0, want: []int{}, next: 5, missed: 3},
			},
		},
		{
			name: "cursor past the head resyncs", capacity: 4, writes: 3,
			wantCap: 4, snapshot: []int{1, 2, 3},
			reads: []read{{since: 1000, dst: 4, want: []int{}, next: 3}},
		},
		{
			name: "cursor behind the horizon skips ahead and reports missed", capacity: 4, writes: 9,
			wantCap: 4, snapshot: []int{6, 7, 8, 9}, evicted: 5,
			reads: []read{{since: 3, dst: 2, want: []int{6, 7}, next: 7, missed: 2}},
		},
		{
			name: "drains in len(dst) chunks", capacity: 8, writes: 5,
			wantCap: 8, snapshot: []int{1, 2, 3, 4, 5},
			reads: []read{
				{since: 0, dst: 2, want: []int{1, 2}, next: 2},
				{since: 2, dst: 2, want: []int{3, 4}, next: 4},
				{since: 4, dst: 2, want: []int{5}, next: 5},
				{since: 5, dst: 2, want: []int{}, next: 5},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := NewFlightRecorder[int](tc.capacity)
			for i := 1; i <= tc.writes; i++ {
				v := i
				f.Record(&v)
			}
			if f.Cap() != tc.wantCap || f.Len() != len(tc.snapshot) || f.Evicted() != tc.evicted || f.Cursor() != uint64(tc.writes) {
				t.Fatalf("Cap/Len/Evicted/Cursor = %d/%d/%d/%d, want %d/%d/%d/%d",
					f.Cap(), f.Len(), f.Evicted(), f.Cursor(), tc.wantCap, len(tc.snapshot), tc.evicted, tc.writes)
			}
			// Snapshot twice: reading never consumes.
			for i := 0; i < 2; i++ {
				if got := f.Snapshot(); fmt.Sprint(got) != fmt.Sprint(tc.snapshot) {
					t.Fatalf("Snapshot = %v, want %v", got, tc.snapshot)
				}
			}
			for _, r := range tc.reads {
				dst := make([]int, r.dst)
				n, next, missed := f.ReadNewer(r.since, dst)
				if fmt.Sprint(dst[:n]) != fmt.Sprint(r.want) || next != r.next || missed != r.missed {
					t.Fatalf("ReadNewer(%d, [%d]) = %v next %d missed %d, want %v next %d missed %d",
						r.since, r.dst, dst[:n], next, missed, r.want, r.next, r.missed)
				}
			}
		})
	}
	for _, c := range []int{0, -1, MaxFlightCapacity + 1} {
		t.Run(fmt.Sprintf("capacity %d panics", c), func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewFlightRecorder(%d) did not panic", c)
				}
			}()
			NewFlightRecorder[int](c)
		})
	}
}

// TestFlightRecorderSnapshotDoesNotConsume pins that Snapshot and
// ReadNewer are reads: neither disturbs the other or later recording.
func TestFlightRecorderSnapshotDoesNotConsume(t *testing.T) {
	f := NewFlightRecorder[rec](4)
	f.Record(&rec{Seq: 1})
	f.Record(&rec{Seq: 2})
	a := f.Snapshot()
	b := f.Snapshot()
	if len(a) != 2 || len(b) != 2 || a[0] != b[0] || a[1] != b[1] {
		t.Fatalf("snapshots differ: %v vs %v", a, b)
	}
	dst := make([]rec, 4)
	if n, _, _ := f.ReadNewer(0, dst); n != 2 {
		t.Fatalf("ReadNewer after snapshots read %d records, want 2", n)
	}
	if c := f.Snapshot(); len(c) != 2 || c[0] != a[0] || c[1] != a[1] {
		t.Fatalf("snapshot after ReadNewer = %v, want %v", c, a)
	}
	f.Record(&rec{Seq: 3})
	if got := f.Snapshot(); len(got) != 3 || got[2].Seq != 3 {
		t.Fatalf("recording after snapshot broken: %v", got)
	}
}

// TestFlightRecorderAllocFree pins Record and a ReadNewer drain at zero
// allocations: both run on decision and serving paths.
func TestFlightRecorderAllocFree(t *testing.T) {
	f := NewFlightRecorder[rec](64)
	v := rec{Seq: 1}
	if allocs := testing.AllocsPerRun(200, func() { f.Record(&v) }); allocs != 0 {
		t.Fatalf("Record allocates %v per op, want 0", allocs)
	}
	dst := make([]rec, 8)
	var cur uint64
	allocs := testing.AllocsPerRun(200, func() {
		f.Record(&v)
		for {
			n, next, _ := f.ReadNewer(cur, dst)
			cur = next
			if n == 0 {
				break
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("ReadNewer allocates %v per poll, want 0", allocs)
	}
}

// TestFlightRecorderConcurrent pins Record/ReadNewer/Snapshot safety
// under -race: a decision path records while an incremental reader and
// an operator snapshot read. Every read must be a gap-free run that
// starts exactly where the cursor contract says.
func TestFlightRecorderConcurrent(t *testing.T) {
	const total = 5000
	f := NewFlightRecorder[rec](16)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		dst := make([]rec, 4)
		var cur, seen, lost uint64
		for {
			n, next, missed := f.ReadNewer(cur, dst)
			for i := 0; i < n; i++ {
				if want := int(cur + missed + uint64(i)); dst[i].Seq != want {
					t.Errorf("ReadNewer from %d (missed %d): dst[%d].Seq = %d, want %d", cur, missed, i, dst[i].Seq, want)
					return
				}
			}
			cur, seen, lost = next, seen+uint64(n), lost+missed
			if cur == total {
				if seen+lost != total {
					t.Errorf("reader saw %d + missed %d, want %d", seen, lost, total)
				}
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := f.Snapshot()
			for i := 1; i < len(snap); i++ {
				if snap[i].Seq != snap[i-1].Seq+1 {
					t.Errorf("snapshot out of order: %v", snap)
					return
				}
			}
		}
	}()
	for i := 0; i < total; i++ {
		v := rec{Seq: i}
		f.Record(&v)
	}
	close(stop)
	wg.Wait()

	snap := f.Snapshot()
	if len(snap) != 16 || snap[len(snap)-1].Seq != total-1 {
		t.Fatalf("final snapshot: len=%d last=%+v", len(snap), snap[len(snap)-1])
	}
}
