package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifestMatchesProgram pins BENCHMARK.json to the tables the program
// emits from: same workloads, same metric names and units in the same order,
// within the limits the benchmark contract sets.
func TestManifestMatchesProgram(t *testing.T) {
	m := readManifest(t)
	if len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", m.Paths)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", m.RunSeconds)
	}
	var specs []string
	for _, s := range tuneSpecs {
		specs = append(specs, s.name)
	}
	for _, s := range serveSpecs {
		specs = append(specs, s.name)
	}
	if len(m.Workloads) != len(specs) || len(specs) > 8 {
		t.Fatalf("%d workloads declared, the program has %d (limit 8)", len(m.Workloads), len(specs))
	}
	seen := map[string]bool{}
	for i, w := range m.Workloads {
		if w.Name != specs[i] {
			t.Errorf("workload %d is %q, the program has %q", i, w.Name, specs[i])
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
		if !nameRE.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q is malformed or repeated", w.Name)
		}
		seen[w.Name] = true
	}
	if len(m.EndToEnd) > 16 || len(m.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the limits 16 and 128", len(m.EndToEnd), len(m.PerLayer))
	}
	compare := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics declared, the program has %d", kind, len(got), len(want))
		}
		for i, g := range got {
			if g.Name != want[i].name || g.Unit != want[i].unit {
				t.Errorf("%s metric %d is %s [%s], the program has %s [%s]", kind, i, g.Name, g.Unit, want[i].name, want[i].unit)
			}
			if !nameRE.MatchString(g.Name) || seen[g.Name] {
				t.Errorf("metric name %q is malformed or repeated", g.Name)
			}
			seen[g.Name] = true
			if g.Better != "lower" && g.Better != "higher" {
				t.Errorf("%s: better = %q", g.Name, g.Better)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound <= 0 || *g.Bound > 0.25)) {
				t.Errorf("%s: bound %v", g.Name, g.Bound)
			}
		}
	}
	compare("end_to_end", m.EndToEnd, endToEnd, true)
	compare("per_layer", m.PerLayer, perLayer, false)
	if s := m.EndToEnd[0]; s.Name != "setup_s" || s.Unit != "s" || s.Better != "lower" {
		t.Errorf("first end-to-end metric is %+v, want setup_s in s, lower", s)
	}
}

// tiny shrinks every workload to a fraction of a second.
func tiny(t *testing.T, workload string, traced bool) options {
	dir := t.TempDir()
	return options{
		workload: workload,
		seed:     1,
		seconds:  1,
		traced:   traced,
		modelDir: filepath.Join("..", "testdata", "models"),
		scratch:  dir,
		spanFile: filepath.Join(dir, "spans.jsonl"),
		layerMin: time.Millisecond,
		sizes: &sizes{
			tune:  tuneSize{windows: 2, window: 50 * time.Millisecond, parts: 2, quick: true},
			serve: serveSize{slices: 2, slice: 20 * time.Millisecond, setups: 2},
		},
	}
}

func mustMeasure(t *testing.T, opt options) result {
	t.Helper()
	res, err := measure(opt, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
		t.Fatalf("result %+v", res)
	}
	return res
}

func checkNames(t *testing.T, res result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics emitted, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		if v, ok := res.Metrics[d.name]; !ok || v.Unit != d.unit {
			t.Errorf("metric %s: emitted=%v unit=%q, want unit %q", d.name, ok, v.Unit, d.unit)
		}
	}
}

// spanLine is one line of a span file.
type spanLine struct {
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
}

// checkTiling asserts that the spans called child lie inside the one span
// called parent, in order, without overlapping.
func checkTiling(t *testing.T, path, workload, parent, child string, want int) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var root spanLine
	var children []spanLine
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s spanLine
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", sc.Text(), err)
		}
		if s.Workload != workload || s.End < s.Start {
			t.Fatalf("bad span %+v", s)
		}
		switch s.Name {
		case parent:
			root = s
		case child:
			children = append(children, s)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if root.ID == 0 || len(children) != want {
		t.Fatalf("found root %+v and %d %s spans, want %d", root, len(children), child, want)
	}
	prev := root.Start
	for _, c := range children {
		if c.Parent != root.ID || c.Start < prev || c.End > root.End {
			t.Errorf("%s span %+v does not tile %+v (previous ended at %d)", child, c, root, prev)
		}
		prev = c.End
	}
}

// TestWorkloads runs every workload at a tiny size, untraced and traced,
// and checks that each run emits exactly the declared metrics, that traced
// spans tile their parent, and that what the simulation computes depends on
// the seed alone.
func TestWorkloads(t *testing.T) {
	for _, spec := range tuneSpecs {
		t.Run(spec.name, func(t *testing.T) {
			first := mustMeasure(t, tiny(t, spec.name, false))
			checkNames(t, first, endToEnd)
			again := mustMeasure(t, tiny(t, spec.name, false))
			if a, b := first.Metrics["throughput_per_s"].Value, again.Metrics["throughput_per_s"].Value; a != b {
				t.Errorf("throughput_per_s %v then %v with the same seed", a, b)
			}

			opt := tiny(t, spec.name, true)
			traced := mustMeasure(t, opt)
			checkNames(t, traced, perLayer)
			checkTiling(t, opt.spanFile, spec.name, "tune.run", "tune.window", opt.sizes.tune.windows+1)
			again = mustMeasure(t, tiny(t, spec.name, true))
			for _, d := range perLayer {
				// Every count is the simulation's, except the collector's
				// cycles, which follow the host's schedule.
				if d.unit != "count" || d.name == "process.gc_cycles" {
					continue
				}
				if a, b := traced.Metrics[d.name].Value, again.Metrics[d.name].Value; a != b {
					t.Errorf("%s %v then %v with the same seed", d.name, a, b)
				}
			}
			if traced.Metrics["mserve.requests"].Value != 0 {
				t.Error("a tuning run reported serving work")
			}
		})
	}
	for _, spec := range serveSpecs {
		t.Run(spec.name, func(t *testing.T) {
			checkNames(t, mustMeasure(t, tiny(t, spec.name, false)), endToEnd)
			opt := tiny(t, spec.name, true)
			traced := mustMeasure(t, opt)
			checkNames(t, traced, perLayer)
			checkTiling(t, opt.spanFile, spec.name, "serve.run", "serve.slice", opt.sizes.serve.slices+1)
			if traced.Metrics["mserve.rows"].Value == 0 || traced.Metrics["workload.ops"].Value != 0 {
				t.Errorf("serving run reported rows=%v ops=%v", traced.Metrics["mserve.rows"].Value, traced.Metrics["workload.ops"].Value)
			}
		})
	}
}

// TestFailuresPrintNoResult checks that a run that cannot be measured
// returns an error instead of a result.
func TestFailuresPrintNoResult(t *testing.T) {
	opt := tiny(t, "no_such_workload", false)
	if _, err := measure(opt, io.Discard); err == nil {
		t.Error("unknown workload measured")
	}
	opt = tiny(t, serveSpecs[0].name, false)
	opt.modelDir = t.TempDir()
	if _, err := measure(opt, io.Discard); err == nil {
		t.Error("serving run without a model file measured")
	}
	opt = tiny(t, tuneSpecs[0].name, false)
	opt.seconds = 0
	if _, err := measure(opt, io.Discard); err == nil {
		t.Error("zero-length run measured")
	}
}
