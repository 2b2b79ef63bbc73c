package dtrace

import (
	"testing"
)

func buildTestTrace(id TraceID) Trace {
	var b Builder
	b.Start(id, 100)
	b.SetValue(0, 2)
	b.SetAux(0, 17_000_000_000)
	f := b.Begin(StageFeature, 0, 110)
	b.SetValue(f, 512)
	b.End(f, 120)
	n := b.Begin(StageNormalize, 0, 120)
	b.SetValue(n, 4)
	b.End(n, 130)
	i := b.Begin(StageInfer, 0, 130)
	b.SetValue(i, 2)
	b.SetAux(i, 3)
	b.End(i, 160)
	a := b.Begin(StageApply, 0, 160)
	b.SetValue(a, 1024)
	b.SetAux(a, 256)
	b.End(a, 170)
	o := b.Begin(StageOutcome, 0, 170)
	b.SetValue(o, 40)
	b.SetAux(o, 910)
	b.End(o, 500)
	return *b.Finish(500)
}

func TestBuilderSpanTree(t *testing.T) {
	tr := buildTestTrace(7)
	if tr.ID != 7 {
		t.Fatalf("ID = %d, want 7", tr.ID)
	}
	if tr.N != 6 {
		t.Fatalf("N = %d, want 6", tr.N)
	}
	if !tr.Complete() {
		t.Fatal("trace should be complete")
	}
	root := tr.Root()
	if root.Stage != StageDecision || root.Parent != 0 {
		t.Fatalf("bad root span: %+v", root)
	}
	if root.Start != 100 || root.End != 500 || root.Duration() != 400 {
		t.Fatalf("root timing wrong: %+v", root)
	}
	wantStages := []Stage{StageDecision, StageFeature, StageNormalize, StageInfer, StageApply, StageOutcome}
	for i, s := range tr.Used() {
		if s.Stage != wantStages[i] {
			t.Fatalf("span %d stage = %v, want %v", i, s.Stage, wantStages[i])
		}
		if i > 0 && s.Parent != 1 {
			t.Fatalf("span %d parent = %d, want 1 (root)", i, s.Parent)
		}
	}
	infer := tr.Spans[3]
	if infer.Value != 2 || infer.Aux != 3 || infer.Duration() != 30 {
		t.Fatalf("infer span attributes wrong: %+v", infer)
	}
}

func TestBuilderOverflowAndMisuse(t *testing.T) {
	var b Builder
	// Begin before Start must refuse.
	if idx := b.Begin(StageFeature, 0, 1); idx != -1 {
		t.Fatalf("Begin before Start = %d, want -1", idx)
	}
	b.Start(1, 1)
	for i := 0; i < MaxTraceSpans-1; i++ {
		if idx := b.Begin(StageFeature, 0, 1); idx != i+1 {
			t.Fatalf("Begin %d = %d, want %d", i, idx, i+1)
		}
	}
	// Trace is full: further Begins degrade to -1, End/Set tolerate it.
	if idx := b.Begin(StageFeature, 0, 1); idx != -1 {
		t.Fatalf("Begin past capacity = %d, want -1", idx)
	}
	b.End(-1, 2)
	b.SetValue(-1, 2)
	b.SetAux(-1, 2)
	// Bad parent refs refuse.
	b2 := Builder{}
	b2.Start(2, 1)
	if idx := b2.Begin(StageFeature, 5, 1); idx != -1 {
		t.Fatalf("Begin with forward parent = %d, want -1", idx)
	}
	if idx := b2.Begin(StageFeature, -1, 1); idx != -1 {
		t.Fatalf("Begin with negative parent = %d, want -1", idx)
	}
	tr := *b2.Finish(9)
	if tr.N != 1 || tr.Spans[0].End != 9 {
		t.Fatalf("Finish should close root: %+v", tr)
	}
	// The next Start reuses the slot for a fresh trace.
	b2.Start(3, 20)
	if got := *b2.Finish(21); got.ID != 3 || got.N != 1 || got.Spans[0].Start != 20 {
		t.Fatalf("Start should reset the builder: %+v", got)
	}
}

func TestBuilderNestedParent(t *testing.T) {
	var b Builder
	b.Start(3, 0)
	p := b.Begin(StageInfer, 0, 1)
	c := b.Begin(StageEncode, p, 2)
	tr := *b.Finish(3)
	if tr.Spans[c].Parent != uint8(p+1) {
		t.Fatalf("child parent = %d, want %d", tr.Spans[c].Parent, p+1)
	}
	if !tr.wireOK() {
		t.Fatal("nested trace should be wire-representable")
	}
}

func TestArenaNextIDMonotonic(t *testing.T) {
	a := NewArena(2)
	last := TraceID(0)
	for i := 0; i < 100; i++ {
		id := a.NextID()
		if id <= last {
			t.Fatalf("NextID not monotonic: %d after %d", id, last)
		}
		last = id
	}
}

// TestSpanRecordAllocFree is the acceptance gate: building and
// recording a full decision trace must not allocate.
func TestSpanRecordAllocFree(t *testing.T) {
	a := NewArena(64)
	var b Builder
	allocs := testing.AllocsPerRun(1000, func() {
		b.Start(a.NextID(), 100)
		idx := b.Begin(StageInfer, 0, 110)
		b.SetValue(idx, 2)
		b.SetAux(idx, 1)
		b.End(idx, 120)
		o := b.Begin(StageOutcome, 0, 120)
		b.End(o, 900)
		a.Record(b.Finish(900))
	})
	if allocs != 0 {
		t.Fatalf("span record path allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestWireRoundTrip(t *testing.T) {
	traces := []Trace{buildTestTrace(1), buildTestTrace(2)}
	// One trace with a nested parent and a single-span trace.
	var b Builder
	b.Start(9, 5)
	p := b.Begin(StageParse, 0, 6)
	b.End(p, 7)
	traces = append(traces, *b.Finish(8))
	b.Start(10, 1)
	traces = append(traces, *b.Finish(2))

	buf := AppendTraces(nil, traces)
	got, err := ParseTraces(buf)
	if err != nil {
		t.Fatalf("ParseTraces: %v", err)
	}
	if len(got) != len(traces) {
		t.Fatalf("decoded %d traces, want %d", len(got), len(traces))
	}
	for i := range got {
		// Compare only the used spans: slots beyond N are scratch (the
		// wire format neither encodes nor promises them).
		if got[i].ID != traces[i].ID || got[i].N != traces[i].N {
			t.Fatalf("trace %d header mismatch: got %v/%d want %v/%d",
				i, got[i].ID, got[i].N, traces[i].ID, traces[i].N)
		}
		for j := 0; j < int(got[i].N); j++ {
			if got[i].Spans[j] != traces[i].Spans[j] {
				t.Fatalf("trace %d span %d mismatch:\n got %+v\nwant %+v",
					i, j, got[i].Spans[j], traces[i].Spans[j])
			}
		}
	}
	re := AppendTraces(nil, got)
	if string(re) != string(buf) {
		t.Fatal("re-encoding is not byte-identical")
	}
}

func TestWireSkipsUnencodable(t *testing.T) {
	bad := Trace{ID: 5, N: 2}
	bad.Spans[0] = Span{Stage: StageDecision}
	bad.Spans[1] = Span{Stage: NumStages + 1, Parent: 1} // invalid stage
	buf := AppendTraces(nil, []Trace{{}, bad, buildTestTrace(1)})
	got, err := ParseTraces(buf)
	if err != nil {
		t.Fatalf("ParseTraces: %v", err)
	}
	if len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("want only the valid trace, got %d traces", len(got))
	}
}

func TestWireCapsAtMaxKeepingNewest(t *testing.T) {
	traces := make([]Trace, MaxWireTraces+10)
	for i := range traces {
		traces[i] = buildTestTrace(TraceID(i + 1))
	}
	got, err := ParseTraces(AppendTraces(nil, traces))
	if err != nil {
		t.Fatalf("ParseTraces: %v", err)
	}
	if len(got) != MaxWireTraces {
		t.Fatalf("decoded %d traces, want %d", len(got), MaxWireTraces)
	}
	if got[0].ID != 11 || got[len(got)-1].ID != TraceID(len(traces)) {
		t.Fatalf("cap should keep the NEWEST traces: first=%d last=%d", got[0].ID, got[len(got)-1].ID)
	}
}

func TestWireRejectsMalformed(t *testing.T) {
	good := AppendTraces(nil, []Trace{buildTestTrace(1)})
	cases := map[string][]byte{
		"empty":          {},
		"short header":   {0},
		"truncated":      good[:len(good)-1],
		"trailing":       append(append([]byte(nil), good...), 0),
		"huge count":     {0xFF, 0xFF},
		"zero spans":     {1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0},
		"overlong spans": {1, 0, 1, 0, 0, 0, 0, 0, 0, 0, MaxTraceSpans + 1},
	}
	// Layout: u16 count, u64 id, u8 nspans, then span 0 at offset 11
	// (stage) and 12 (parent).
	fwd := append([]byte(nil), good...)
	fwd[12] = 9 // forward parent reference on span 0
	cases["forward parent"] = fwd
	stg := append([]byte(nil), good...)
	stg[11] = byte(NumStages) // unknown stage
	cases["bad stage"] = stg
	for name, b := range cases {
		if _, err := ParseTraces(b); err == nil {
			t.Errorf("%s: ParseTraces accepted malformed input", name)
		}
	}
}

func TestStageString(t *testing.T) {
	for s := Stage(0); s < NumStages; s++ {
		if s.String() == "" || s.String() == "stage?" {
			t.Fatalf("stage %d has no name", s)
		}
	}
	if Stage(200).String() != "stage?" {
		t.Fatal("out-of-range stage should render as stage?")
	}
}

// TestArenaReadNewer pins the cursor contract the arena inherits from
// telemetry.FlightRecorder, at the Trace slot and with minted IDs.
func TestArenaReadNewer(t *testing.T) {
	a := NewArena(4)
	buf := make([]Trace, 2)
	// Empty arena: nothing to read, cursor stays at zero.
	if n, cur, missed := a.ReadNewer(0, buf); n != 0 || cur != 0 || missed != 0 {
		t.Fatalf("ReadNewer on empty arena = (%d, %d, %d), want (0, 0, 0)", n, cur, missed)
	}
	for i := 1; i <= 3; i++ {
		tr := buildTestTrace(a.NextID())
		a.Record(&tr)
	}
	// Drain in chunks of len(buf): 2 then 1.
	n, cur, _ := a.ReadNewer(0, buf)
	if n != 2 || cur != 2 || buf[0].ID != 1 || buf[1].ID != 2 {
		t.Fatalf("first read = (%d, %d) ids %d,%d; want (2, 2) ids 1,2", n, cur, buf[0].ID, buf[1].ID)
	}
	n, cur, _ = a.ReadNewer(cur, buf)
	if n != 1 || cur != 3 || buf[0].ID != 3 {
		t.Fatalf("second read = (%d, %d) id %d; want (1, 3) id 3", n, cur, buf[0].ID)
	}
	if n, cur, _ = a.ReadNewer(cur, buf); n != 0 || cur != 3 {
		t.Fatalf("drained read = (%d, %d), want (0, 3)", n, cur)
	}
	// Overflow past the reader: traces 4..9 overwrite 1..5; a reader at
	// cursor 3 lost traces 4,5 and resumes at the horizon (6..9 retained).
	for i := 4; i <= 9; i++ {
		tr := buildTestTrace(a.NextID())
		a.Record(&tr)
	}
	n, cur, missed := a.ReadNewer(3, buf)
	if n != 2 || cur != 7 || missed != 2 || buf[0].ID != 6 || buf[1].ID != 7 {
		t.Fatalf("post-overflow read = (%d, %d, missed %d) ids %d,%d; want (2, 7, missed 2) ids 6,7",
			n, cur, missed, buf[0].ID, buf[1].ID)
	}
	// A cursor beyond the writer (stale arena swap) resyncs to now.
	if n, cur, _ = a.ReadNewer(1000, buf); n != 0 || cur != 9 {
		t.Fatalf("future cursor read = (%d, %d), want (0, 9)", n, cur)
	}
	if got := a.Cursor(); got != 9 {
		t.Fatalf("Cursor = %d, want 9", got)
	}
	// Zero-length destination copies nothing; a cursor inside the
	// retained window stays where it is.
	if n, cur, _ = a.ReadNewer(6, nil); n != 0 || cur != 6 {
		t.Fatalf("nil dst read = (%d, %d), want (0, 6)", n, cur)
	}
}

// TestArenaReadNewerAllocFree pins the polling path the black-box
// sampler runs on at the 344-byte Trace slot: reading new traces into a
// caller-owned buffer must not allocate.
func TestArenaReadNewerAllocFree(t *testing.T) {
	a := NewArena(64)
	for i := 0; i < 32; i++ {
		tr := buildTestTrace(a.NextID())
		a.Record(&tr)
	}
	buf := make([]Trace, 8)
	cur := uint64(0)
	allocs := testing.AllocsPerRun(100, func() {
		tr := buildTestTrace(a.NextID())
		a.Record(&tr)
		for {
			n, c, _ := a.ReadNewer(cur, buf)
			cur = c
			if n == 0 {
				break
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("ReadNewer allocates %.1f times per poll, want 0", allocs)
	}
}
