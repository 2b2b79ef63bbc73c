// Command benchmark is the repo benchmark BENCHMARK.json declares: three
// closed-loop tuning workloads over the simulated storage stack and two
// serving workloads over mserve, each reporting end-to-end metrics and, in a
// traced run, a per-layer ledger measured from outside by timing calls into
// every layer's public functions. README.md explains each workload and
// metric.
//
//	go run ./benchmark -workload tune_readseq_nvme -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object {correct, attempted,
// failed, metrics}: the end-to-end metrics with -trace 0, the per-layer
// metrics with -trace 1. Any failed output check, error or panic exits
// non-zero and prints no result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// options is one invocation's inputs.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	modelDir string        // holds readahead.kml and readahead.norm
	scratch  string        // registries and sockets live here; removed at exit
	spanFile string        // where a traced run writes its spans
	layerMin time.Duration // how long each layer loop runs
	sizes    *sizes        // nil outside tests: sizes follow from seconds
}

// result is the line the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildDir is the one directory the benchmark writes to, relative to the
// checkout root it is run from; .gitignore names it.
const buildDir = ".bench_build"

func main() {
	var opt options
	var traced int
	flag.StringVar(&opt.workload, "workload", "", "workload to run (see BENCHMARK.json)")
	flag.Int64Var(&opt.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&opt.seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&traced, "trace", 0, "1 repeats the workload with spans and prints the per-layer metrics")
	flag.Parse()
	opt.modelDir = filepath.Join("testdata", "models")
	opt.scratch = filepath.Join(buildDir, fmt.Sprintf("run%d", os.Getpid()))
	opt.spanFile = filepath.Join(buildDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", opt.workload, opt.seed))

	opt.traced = traced != 0
	opt.layerMin = 200 * time.Millisecond

	res, err := measure(opt, os.Stdout)
	if rmErr := os.RemoveAll(opt.scratch); err == nil {
		err = rmErr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
}

// sizes overrides how much work a run does; the tests use it to shrink the
// workloads.
type sizes struct {
	tune  tuneSize
	serve serveSize
}

// measure runs one workload, prints every metric it measured to table, and
// returns the result, or an error if anything failed, including an output
// check. A panic in the measured code is not recovered: it ends the process
// non-zero before any result is printed.
func measure(opt options, table io.Writer) (result, error) {
	if opt.seconds <= 0 {
		return result{}, fmt.Errorf("-seconds must be positive, got %g", opt.seconds)
	}
	r := &run{opt: opt}
	if opt.traced {
		r.rec = newRecorder()
	}
	var attempted, failed uint64
	var err error
	if spec, ok := findTune(opt.workload); ok {
		size := spec.size(opt.seconds)
		if opt.sizes != nil {
			size = opt.sizes.tune
		}
		r.rep = newReport(onTune)
		r.root = r.rec.begin("tune.run", 0)
		attempted, failed, err = r.runTune(spec, size)
	} else if spec, ok := findServe(opt.workload); ok {
		size := spec.size(opt.seconds)
		if opt.sizes != nil {
			size = opt.sizes.serve
		}
		if err := os.MkdirAll(opt.scratch, 0o755); err != nil {
			return result{}, err
		}
		r.rep = newReport(onServe)
		r.root = r.rec.begin("serve.run", 0)
		attempted, failed, err = r.runServe(spec, size)
	} else {
		return result{}, fmt.Errorf("unknown workload %q", opt.workload)
	}
	if err != nil {
		return result{}, err
	}
	if opt.traced {
		r.rec.end(r.root)
		if err := r.rec.write(opt.spanFile, opt.workload); err != nil {
			return result{}, err
		}
	}
	if len(r.rep.fails) > 0 {
		return result{}, fmt.Errorf("%s seed %d failed %d checks: %q", opt.workload, opt.seed, len(r.rep.fails), r.rep.fails)
	}
	defs := endToEnd
	if opt.traced {
		defs = perLayer
	}
	metrics, err := r.rep.collect(defs)
	if err != nil {
		return result{}, err
	}
	r.rep.print(table)
	return result{Correct: true, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}

func findTune(name string) (tuneSpec, bool) {
	for _, s := range tuneSpecs {
		if s.name == name {
			return s, true
		}
	}
	return tuneSpec{}, false
}

func findServe(name string) (serveSpec, bool) {
	for _, s := range serveSpecs {
		if s.name == name {
			return s, true
		}
	}
	return serveSpec{}, false
}
