package main

import (
	"bufio"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// span is one timed interval recorded by the benchmark's own code around a
// call into a layer. IDs are 1-based positions in the recorder; parent 0
// means a root. It holds no pointer (the name is an index into
// recorder.names), so the garbage collector never scans the hundreds of
// thousands of spans a tuning run keeps.
type span struct {
	name       int32
	parent     int32
	start, end int64 // ns since the recorder was made
}

// recorder keeps spans in memory for the whole run and writes them out at
// exit. A nil recorder records nothing, so untraced runs share the code
// that opens the coarse spans (run, window, slice, layer loop).
type recorder struct {
	t0    time.Time
	spans []span
	names []string
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, span{name: r.nameIndex(name), parent: int32(parent), start: int64(time.Since(r.t0))})
	return len(r.spans)
}

// nameIndex interns name; a run uses a few dozen, so a scan is enough.
func (r *recorder) nameIndex(name string) int32 {
	for i, n := range r.names {
		if n == name {
			return int32(i)
		}
	}
	r.names = append(r.names, name)
	return int32(len(r.names) - 1)
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id-1].end = int64(time.Since(r.t0))
}

// meanNS returns the mean duration of the spans called name, and how many
// there are.
func (r *recorder) meanNS(name string) (float64, int) {
	var sum int64
	n := 0
	idx := r.nameIndex(name)
	for i := range r.spans {
		if r.spans[i].name == idx {
			sum += r.spans[i].end - r.spans[i].start
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return float64(sum) / float64(n), n
}

// write stores the spans as JSON lines:
// {"name":..,"start_ns":..,"end_ns":..,"id":..,"parent":..,"workload":..}.
func (r *recorder) write(path, workload string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	for i, s := range r.spans {
		line = append(line[:0], `{"name":`...)
		line = strconv.AppendQuote(line, r.names[s.name])
		line = append(line, `,"start_ns":`...)
		line = strconv.AppendInt(line, s.start, 10)
		line = append(line, `,"end_ns":`...)
		line = strconv.AppendInt(line, s.end, 10)
		line = append(line, `,"id":`...)
		line = strconv.AppendInt(line, int64(i+1), 10)
		line = append(line, `,"parent":`...)
		line = strconv.AppendInt(line, int64(s.parent), 10)
		line = append(line, `,"workload":`...)
		line = strconv.AppendQuote(line, workload)
		line = append(line, "}\n"...)
		if _, err := w.Write(line); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
