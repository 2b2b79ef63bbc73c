package main

import (
	"fmt"
	"io"
)

// family says which workloads a metric is measured on. A per-layer metric
// whose family does not include the running workload is reported as 0:
// that layer is not on the workload's path (no mserve request is made by a
// tuning run, no page is read by a serving run).
type family uint8

const (
	onTune family = 1 << iota
	onServe
	onAll = onTune | onServe
)

type metricDef struct {
	name, unit string
	on         family
}

// endToEnd is what a user of the system sees; BENCHMARK.json gives each a
// direction and a regression bound. Every workload reports every one.
var endToEnd = []metricDef{
	{"setup_s", "s", onAll},
	{"throughput_per_s", "1/s", onAll},
	{"host_us_per_op", "us", onAll},
}

// perLayer is the ledger: counts from the untraced run's public stats,
// timings from the traced repeat and the layer loops. BENCHMARK.json lists
// the same names in the same order (bench_test.go checks).
var perLayer = []metricDef{
	{"tune.kml_speedup", "ratio", onTune},
	{"tune.unattributed_ns_per_op", "ns", onTune},
	{"vanilla.vops_per_vsec", "1/s", onTune},
	{"vanilla.host_ns_per_op", "ns", onTune},
	{"workload.ops", "count", onTune},
	{"workload.step_ns", "ns", onTune},
	{"kvstore.gets", "count", onTune},
	{"kvstore.puts", "count", onTune},
	{"kvstore.flushes", "count", onTune},
	{"kvstore.compactions", "count", onTune},
	{"kvstore.tables", "count", onTune},
	{"pagecache.hit_rate", "ratio", onTune},
	{"pagecache.misses", "count", onTune},
	{"pagecache.spec_used_share", "ratio", onTune},
	{"pagecache.evicted", "count", onTune},
	{"pagecache.dirty_evicted", "count", onTune},
	{"pagecache.writebacks", "count", onTune},
	{"pagecache.wait_share", "ratio", onTune},
	{"blockdev.busy_share", "ratio", onTune},
	{"blockdev.wait_share", "ratio", onTune},
	{"blockdev.sync_reads", "count", onTune},
	{"blockdev.async_reads", "count", onTune},
	{"blockdev.pages_needed", "count", onTune},
	{"blockdev.pages_spec", "count", onTune},
	{"blockdev.pages_written", "count", onTune},
	{"trace.events_per_op", "ratio", onTune},
	{"trace.emit_ns", "ns", onTune},
	{"readahead.collect_ns", "ns", onTune},
	{"readahead.tick_idle_ns", "ns", onTune},
	{"readahead.tick_decide_ns", "ns", onTune},
	{"readahead.tick_ns", "ns", onTune},
	{"readahead.decisions", "count", onTune},
	{"readahead.class_match_share", "ratio", onTune},
	{"readahead.final_sectors", "count", onTune},
	{"readahead.collected", "count", onTune},
	{"readahead.dropped", "count", onTune},
	{"ringbuf.push_pop_ns", "ns", onTune},
	{"features.add_ns", "ns", onTune},
	{"features.emit_normalize_ns", "ns", onTune},
	{"nn.predict_ns", "ns", onAll},
	{"nn.predict_f32_ns", "ns", onAll},
	{"nn.predict_fixed_ns", "ns", onAll},
	{"nn.predict_batch256_ns_per_row", "ns", onAll},
	{"nn.predict_batch256_f32_ns_per_row", "ns", onAll},
	{"nn.predict_batch256_fixed_ns_per_row", "ns", onAll},
	{"nn.train_step_ns", "ns", onAll},
	{"mserve.health_rtt_p50_us", "us", onServe},
	{"mserve.frame_codec_ns", "ns", onServe},
	{"mserve.infer_codec_ns", "ns", onServe},
	{"mserve.batch_codec_ns_per_row", "ns", onServe},
	{"mserve.predict_ns", "ns", onServe},
	{"mserve.predict_batch256_ns_per_row", "ns", onServe},
	{"mserve.requests", "count", onServe},
	{"mserve.rows", "count", onServe},
	{"mserve.errors", "count", onServe},
	{"mserve.collected", "count", onServe},
	{"mserve.collect_dropped", "count", onServe},
	{"serve.unattributed_us", "us", onServe},
	{"client.lat_p90_us", "us", onServe},
	{"client.lat_p99_us", "us", onServe},
	{"client.lat_max_us", "us", onServe},
	{"client.requests", "count", onServe},
	{"process.cpu_us_per_op", "us", onAll},
	{"process.allocs_per_op", "ratio", onAll},
	{"process.gc_cycles", "count", onAll},
	{"process.peak_rss_mb", "MB", onAll},
	{"bench.trace_overhead_share", "ratio", onAll},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's metrics and refuses names the tables above do
// not declare, so the program and BENCHMARK.json cannot drift apart.
type report struct {
	on     family
	values map[string]float64
	fails  []string
}

func newReport(on family) *report {
	return &report{on: on, values: make(map[string]float64)}
}

func lookup(name string) (metricDef, bool) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

func (r *report) set(name string, v float64) {
	d, ok := lookup(name)
	switch {
	case !ok:
		panic("benchmark: undeclared metric " + name)
	case d.on&r.on == 0:
		panic("benchmark: metric " + name + " does not belong to this workload")
	}
	if _, dup := r.values[name]; dup {
		panic("benchmark: metric " + name + " set twice")
	}
	r.values[name] = v
}

func (r *report) get(name string) float64 {
	v, ok := r.values[name]
	if !ok {
		panic("benchmark: metric " + name + " read before it was set")
	}
	return v
}

// check records a failed output check; any failure makes the run exit
// non-zero without printing a result.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.fails = append(r.fails, fmt.Sprintf(format, args...))
	}
}

// collect returns the metrics of defs, each exactly once: the measured
// value on the workloads the metric belongs to, 0 elsewhere.
func (r *report) collect(defs []metricDef) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := r.values[d.name]
		if d.on&r.on != 0 && !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}

// print writes every metric measured so far, one "name value unit" per
// line in table order.
func (r *report) print(w io.Writer) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if v, ok := r.values[d.name]; ok {
				fmt.Fprintf(w, "%-40s %20.10g %s\n", d.name, v, d.unit)
			}
		}
	}
}
