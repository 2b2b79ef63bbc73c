package blackbox

import (
	"path/filepath"
	"testing"
	"time"
)

// RecordOverheadBudgetNanos bounds one Record call at a representative
// payload (256 bytes: a small trace batch). The cost is one payload
// CRC, a 36-byte header encode, and one copy into the staging ring —
// measured well under 200 ns — and the ISSUE gate is 1 µs/record. The
// budget exists because a regression here (an allocation, I/O sneaking
// onto the append path) would make the flight recorder perturb exactly
// the system it is supposed to observe.
const RecordOverheadBudgetNanos = 1_000

func measure(iters, rounds int, f func(n int)) float64 {
	best := time.Duration(1<<63 - 1)
	for r := 0; r < rounds; r++ {
		start := time.Now()
		f(iters)
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds()) / float64(iters)
}

// TestBlackboxOverheadBudget fails the build when one staging-ring
// append exceeds the budget or allocates — the black-box entry in the
// repo's overhead self-checks (telemetry 50 ns, dtrace 100 ns, tsrec
// 20 µs/tick).
func TestBlackboxOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing assertion skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race detector intercepts the lock and CRC; timings would measure the detector")
	}
	r, err := Open(Config{Path: filepath.Join(t.TempDir(), "bb.bin")})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	payload := testPayload(256, 1)
	now := int64(0)
	perRecord := measure(20_000, 5, func(n int) {
		for i := 0; i < n; i++ {
			now += 1000
			r.Record(KindTraces, now, payload)
		}
	})
	t.Logf("record %.0f ns (budget %d ns)", perRecord, RecordOverheadBudgetNanos)
	if perRecord > RecordOverheadBudgetNanos {
		t.Fatalf("blackbox record costs %.0f ns, over the %d ns budget",
			perRecord, RecordOverheadBudgetNanos)
	}
	allocs := testing.AllocsPerRun(200, func() {
		now += 1000
		r.Record(KindTraces, now, payload)
	})
	if allocs != 0 {
		t.Fatalf("record allocates %.1f per op, want 0", allocs)
	}
}

// BenchmarkE12_BlackboxRecord measures one flight-recorder append at the
// sampler's typical payload size (a 256-byte metrics snapshot): header
// encode, CRC over header and payload, copy into the in-memory ring, pad
// zeroing. TestBlackboxOverheadBudget gates it (≤ 1 µs, 0 allocs).
func BenchmarkE12_BlackboxRecord(b *testing.B) {
	r, err := Open(Config{Path: filepath.Join(b.TempDir(), "bench.blackbox"), Size: 4 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	payload := testPayload(256, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !r.Record(KindMetrics, int64(i+1), payload) {
			b.Fatal("record dropped")
		}
	}
}
