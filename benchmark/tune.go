package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/blockdev"
	"repro/internal/clock"
	"repro/internal/features"
	"repro/internal/kvstore"
	"repro/internal/nn"
	"repro/internal/pagecache"
	"repro/internal/readahead"
	"repro/internal/ringbuf"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// tuneSpec is one closed-loop tuning workload: a db_bench workload on a
// device, run once without and once with the KML tuner in the loop.
type tuneSpec struct {
	name string
	kind workload.Kind
	cfg  func(seed int64) sim.Config
	// windowsPerSecond converts -seconds into measured one-virtual-second
	// windows, so the simulated result depends on the seed and the
	// requested length only, never on how fast this host is. The rates are
	// what the reference host runs with the tuner in the loop.
	windowsPerSecond float64
	// parts is how many equal virtual parts of a window host time is sampled
	// in, chosen so that a part takes about a quarter of a host second: long
	// enough to hold several garbage collections, short enough that a run
	// has dozens for host_us_per_op to take the fastest quartile of.
	parts int
	// speedup is the range the steady-state KML/vanilla ratio must fall in.
	speedupMin, speedupMax float64
}

var tuneSpecs = []tuneSpec{
	{"tune_readrandom_ssd", workload.ReadRandom, bench.DefaultSSDConfig, 2.4, 2, 2.0, math.Inf(1)},
	{"tune_readseq_nvme", workload.ReadSeq, bench.DefaultNVMeConfig, 0.4, 10, 0.99, 1.01},
	{"tune_updaterandom_ssd", workload.UpdateRandom, bench.DefaultSSDConfig, 2.0, 2, 1.05, math.Inf(1)},
}

// tuneSize is how much of a tuning workload one run does. main derives it
// from -seconds; the tests shrink the environment and the window.
type tuneSize struct {
	windows int           // measured windows; one more runs first as warm-up
	window  time.Duration // virtual length of a window and of a decision interval
	parts   int           // host-time samples per window
	quick   bool          // bench.QuickConfig environment, output ranges not enforced
}

func (s tuneSpec) size(seconds float64) tuneSize {
	n := int(seconds*s.windowsPerSecond + 0.5)
	if n < 2 {
		n = 2
	}
	return tuneSize{windows: n, window: time.Second, parts: s.parts}
}

// traceEvery is the sampling stride of per-operation spans in a traced run.
const traceEvery = 16

// replayEvents is how many tracepoint events a traced run captures from the
// workload to replay through the collection-path layer loops.
const replayEvents = 1 << 16

// tuneEnv is one assembled environment, with the tuner hooked on its tracer
// when kml is set.
type tuneEnv struct {
	env    *sim.Env
	runner *workload.Runner
	tuner  *readahead.Tuner
	net    *nn.Network
	norm   features.Normalizer
}

// loadBundle reads the committed model and normalizer: the paper's "train
// in user space, deploy the artifact" path, so set-up does no training.
func loadBundle(dir string) (*nn.Network, features.Normalizer, error) {
	net, err := nn.LoadFile(filepath.Join(dir, "readahead.kml"))
	if err != nil {
		return nil, features.Normalizer{}, err
	}
	f, err := os.Open(filepath.Join(dir, "readahead.norm"))
	if err != nil {
		return nil, features.Normalizer{}, err
	}
	defer f.Close()
	norm, err := features.LoadNormalizer(f)
	return net, norm, err
}

func (r *run) newTuneEnv(spec tuneSpec, size tuneSize, kml bool) (*tuneEnv, error) {
	net, norm, err := loadBundle(r.opt.modelDir)
	if err != nil {
		return nil, err
	}
	cfg := spec.cfg(r.opt.seed)
	if size.quick {
		cfg = bench.QuickConfig(cfg)
	}
	env, err := sim.NewEnv(cfg)
	if err != nil {
		return nil, err
	}
	te := &tuneEnv{env: env, runner: env.NewRunner(spec.kind), net: net, norm: norm}
	if kml {
		te.tuner, err = readahead.NewTuner(env.Dev, readahead.NewNNClassifier(net), norm,
			readahead.TunerConfig{Window: size.window})
		if err != nil {
			return nil, err
		}
		env.Tracer.Register(te.tuner.Hook())
	}
	return te, nil
}

// tuneCounts is the public counters of every layer of the substrate.
type tuneCounts struct {
	ops     uint64
	events  uint64
	db      kvstore.DBStats
	cache   pagecache.Stats
	dev     blockdev.Stats
	virtual time.Duration
}

func (te *tuneEnv) counts() tuneCounts {
	return tuneCounts{
		ops:     te.runner.Ops(),
		events:  te.env.Tracer.Total(),
		db:      te.env.DB.Stats(),
		cache:   te.env.Cache.Stats(),
		dev:     te.env.Dev.Stats(),
		virtual: te.env.Clk.Now(),
	}
}

// tuneResult is one pass (warm-up window + measured windows) over an
// environment.
type tuneResult struct {
	before, after tuneCounts // at the start and end of the measured windows
	partNS        []float64  // host ns per simulated op, one per part of a measured window
	use0, use1    usage
	attempted     uint64
}

func (t tuneResult) ops() uint64 { return t.after.ops - t.before.ops }

func (t tuneResult) vopsPerVsec() float64 {
	return float64(t.ops()) / (t.after.virtual - t.before.virtual).Seconds()
}

func (t tuneResult) hostNSPerOp() float64 { return fastest(t.partNS) }

// tunePass drives the environment the way bench.RunKML does — Step, then
// MaybeTick — one window at a time. With a recorder it also wraps every
// traceEvery-th operation in a workload.step and a readahead.tick span.
func tunePass(te *tuneEnv, size tuneSize, rec *recorder, parent int) (tuneResult, error) {
	var res tuneResult
	env, runner, tuner := te.env, te.runner, te.tuner
	start := env.Clk.Now()
	runtime.GC()
	for w := 0; w <= size.windows; w++ {
		if w == 1 {
			var err error
			if res.use0, err = readUsage(); err != nil {
				return res, err
			}
			res.before = te.counts()
		}
		wid := rec.begin("tune.window", parent)
		for p := 1; p <= size.parts; p++ {
			deadline := start + time.Duration(w)*size.window + time.Duration(p)*size.window/time.Duration(size.parts)
			ops0, h0 := runner.Ops(), time.Now()
			var err error
			switch {
			case rec != nil:
				err = tracedPart(env, runner, tuner, deadline, rec, wid)
			case tuner != nil:
				for env.Clk.Now() < deadline && err == nil {
					err = runner.Step()
					tuner.MaybeTick(env.Clk.Now())
				}
			default:
				for env.Clk.Now() < deadline && err == nil {
					err = runner.Step()
				}
			}
			if err != nil {
				return res, fmt.Errorf("%s step: %w", runner.Kind(), err)
			}
			// One operation can wait past a whole part on a slow device.
			if ops := runner.Ops() - ops0; w > 0 && ops > 0 {
				res.partNS = append(res.partNS, float64(time.Since(h0).Nanoseconds())/float64(ops))
			}
		}
		rec.end(wid)
	}
	res.after = te.counts()
	var err error
	res.use1, err = readUsage()
	res.attempted = runner.Ops() + runner.Errs()
	return res, err
}

func tracedPart(env *sim.Env, runner *workload.Runner, tuner *readahead.Tuner, deadline time.Duration, rec *recorder, parent int) error {
	for i := 0; env.Clk.Now() < deadline; i++ {
		if i%traceEvery != 0 {
			if err := runner.Step(); err != nil {
				return err
			}
			tuner.MaybeTick(env.Clk.Now())
			continue
		}
		id := rec.begin("workload.step", parent)
		err := runner.Step()
		rec.end(id)
		if err != nil {
			return err
		}
		id = rec.begin("readahead.tick", parent)
		tuner.MaybeTick(env.Clk.Now())
		rec.end(id)
	}
	return nil
}

// runTune measures one tuning workload: vanilla pass, KML pass, and in a
// traced run a KML repeat with spans plus the layer loops.
func (r *run) runTune(spec tuneSpec, size tuneSize) (attempted, failed uint64, err error) {
	var setups []float64
	build := func(kml bool) (*tuneEnv, error) {
		start := time.Now()
		te, err := r.newTuneEnv(spec, size, kml)
		setups = append(setups, time.Since(start).Seconds())
		return te, err
	}

	// A spare build, dropped at once, makes the set-ups three, so setup_s is
	// the fastest of three and not of two.
	if _, err := build(false); err != nil {
		return 0, 0, err
	}
	te, err := build(false)
	if err != nil {
		return 0, 0, err
	}
	vanilla, err := tunePass(te, size, nil, 0)
	if err != nil {
		return 0, 0, err
	}
	attempted, failed = vanilla.attempted, te.runner.Errs()

	if te, err = build(true); err != nil {
		return 0, 0, err
	}
	kml, err := tunePass(te, size, nil, 0)
	if err != nil {
		return 0, 0, err
	}
	attempted += kml.attempted
	failed += te.runner.Errs()
	r.setTuneCounts(spec, size, te, vanilla, kml)

	if r.rec != nil {
		traced, err := r.tracedTune(spec, size, build, kml)
		if err != nil {
			return 0, 0, err
		}
		attempted += traced.attempted
	}
	r.rep.set("setup_s", fastest(setups))
	r.rep.check(failed == 0, "%d of %d operations failed", failed, attempted)
	return attempted, failed, nil
}

// setTuneCounts records the end-to-end metrics and every count-type layer
// metric from the untraced passes, and checks the outputs.
func (r *run) setTuneCounts(spec tuneSpec, size tuneSize, te *tuneEnv, vanilla, kml tuneResult) {
	rep := r.rep
	rep.set("throughput_per_s", kml.vopsPerVsec())
	rep.set("host_us_per_op", kml.hostNSPerOp()/1e3)
	speedup := kml.vopsPerVsec() / vanilla.vopsPerVsec()
	rep.set("tune.kml_speedup", speedup)
	rep.set("vanilla.vops_per_vsec", vanilla.vopsPerVsec())
	rep.set("vanilla.host_ns_per_op", vanilla.hostNSPerOp())

	b, a := kml.before, kml.after
	ops := float64(kml.ops())
	virtual := float64(a.virtual - b.virtual)
	share := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	rep.set("workload.ops", ops)
	rep.set("kvstore.gets", float64(a.db.Gets-b.db.Gets))
	rep.set("kvstore.puts", float64(a.db.Puts-b.db.Puts))
	flushes, compactions := a.db.Flushes-b.db.Flushes, a.db.Compactions-b.db.Compactions
	rep.set("kvstore.flushes", float64(flushes))
	rep.set("kvstore.compactions", float64(compactions))
	rep.set("kvstore.tables", float64(te.env.DB.Tables()))
	hits, misses := a.cache.Hits-b.cache.Hits, a.cache.Misses-b.cache.Misses
	rep.set("pagecache.hit_rate", share(hits, hits+misses))
	rep.set("pagecache.misses", float64(misses))
	// Over the whole pass: a page read ahead during warm-up may be used in a
	// measured window, so the measured windows alone can show more than 1.
	rep.set("pagecache.spec_used_share", share(a.cache.SpecUsed, a.cache.SpecInserted))
	rep.set("pagecache.evicted", float64(a.cache.Evicted-b.cache.Evicted))
	rep.set("pagecache.dirty_evicted", float64(a.cache.DirtyEvicted-b.cache.DirtyEvicted))
	rep.set("pagecache.writebacks", float64(a.cache.Writebacks-b.cache.Writebacks))
	rep.set("pagecache.wait_share", float64(a.cache.WaitTime-b.cache.WaitTime)/virtual)
	rep.set("blockdev.busy_share", float64(a.dev.BusyTime-b.dev.BusyTime)/virtual)
	rep.set("blockdev.wait_share", float64(a.dev.WaitTime-b.dev.WaitTime)/virtual)
	rep.set("blockdev.sync_reads", float64(a.dev.SyncReads-b.dev.SyncReads))
	rep.set("blockdev.async_reads", float64(a.dev.AsyncReads-b.dev.AsyncReads))
	rep.set("blockdev.pages_needed", float64(a.dev.PagesNeeded-b.dev.PagesNeeded))
	rep.set("blockdev.pages_spec", float64(a.dev.PagesSpec-b.dev.PagesSpec))
	rep.set("blockdev.pages_written", float64(a.dev.PagesWrit-b.dev.PagesWrit))
	rep.set("trace.events_per_op", float64(a.events-b.events)/ops)

	// The first decision closes the warm-up window (cold cache); every
	// later one is steady state.
	decisions := te.tuner.Decisions()
	if len(decisions) > 0 {
		decisions = decisions[1:]
	}
	match := uint64(0)
	for _, d := range decisions {
		if d.Class == spec.kind.Class() {
			match++
		}
	}
	matchShare := share(match, uint64(len(decisions)))
	rep.set("readahead.decisions", float64(len(decisions)))
	rep.set("readahead.class_match_share", matchShare)
	rep.set("readahead.final_sectors", float64(te.env.Dev.ReadaheadSectors()))
	rep.set("readahead.collected", float64(te.tuner.Collected()))
	rep.set("readahead.dropped", float64(te.tuner.Dropped()))
	r.setProcess(kml.use0, kml.use1, kml.ops())

	rep.check(te.tuner.Dropped() == 0, "collection ring dropped %d samples", te.tuner.Dropped())
	rep.check(len(decisions) >= size.windows-1, "%d decisions in %d measured windows", len(decisions), size.windows)
	if spec.kind != workload.UpdateRandom {
		rep.check(flushes == 0 && compactions == 0, "read-only workload flushed %d times and compacted %d times", flushes, compactions)
	}
	if !size.quick {
		rep.check(speedup >= spec.speedupMin && speedup <= spec.speedupMax,
			"kml_speedup %.4f outside [%g, %g]", speedup, spec.speedupMin, spec.speedupMax)
		if spec.kind.Class() >= 0 {
			rep.check(matchShare == 1, "class_match_share %.4f on a trained class, want 1", matchShare)
		}
	}
}

// tracedTune repeats the KML pass with spans, checks that recording them
// did not change what was simulated, and times each layer of the tuning
// path from outside.
func (r *run) tracedTune(spec tuneSpec, size tuneSize, build func(bool) (*tuneEnv, error), untraced tuneResult) (tuneResult, error) {
	te, err := build(true)
	if err != nil {
		return tuneResult{}, err
	}
	// A second hook captures the first events the workload emits, for the
	// collection-path loops below to replay.
	events := make([]trace.Event, 0, replayEvents)
	te.env.Tracer.Register(func(ev trace.Event) {
		if len(events) < cap(events) {
			events = append(events, ev)
		}
	})
	traced, err := tunePass(te, size, r.rec, r.root)
	if err != nil {
		return traced, err
	}
	r.rep.check(traced.ops() == untraced.ops() && traced.after.virtual == untraced.after.virtual,
		"traced repeat simulated %d ops, untraced %d", traced.ops(), untraced.ops())
	r.rep.set("bench.trace_overhead_share", traced.hostNSPerOp()/untraced.hostNSPerOp()-1)
	stepNS, _ := r.rec.meanNS("workload.step")
	tickNS, _ := r.rec.meanNS("readahead.tick")
	r.rep.set("workload.step_ns", stepNS)
	r.rep.set("readahead.tick_ns", tickNS)
	if len(events) == 0 {
		return traced, fmt.Errorf("%s emitted no tracepoint events to replay", spec.name)
	}
	// Each layer is timed alone: with the environment's few hundred MB gone
	// from the heap, a loop that allocates pays for its own garbage only.
	net, norm := te.net, te.norm
	te = nil
	runtime.GC()
	if err := r.tuneLayers(spec, size, net, norm, events); err != nil {
		return traced, err
	}
	if err := r.nnLayers(net, featurePool(r.opt.seed)); err != nil {
		return traced, err
	}
	r.rep.set("tune.unattributed_ns_per_op", r.rep.get("host_us_per_op")*1e3-
		r.rep.get("vanilla.host_ns_per_op")-
		r.rep.get("trace.events_per_op")*r.rep.get("readahead.collect_ns")-
		r.rep.get("readahead.tick_idle_ns"))
	return traced, nil
}

// tuneLayers times the tuning path layer by layer on the events the
// workload emitted: tracepoint dispatch, the tuner's collect hook, its idle
// and deciding ticks, and the ring and feature code underneath them.
func (r *run) tuneLayers(spec tuneSpec, size tuneSize, net *nn.Network, norm features.Normalizer, events []trace.Event) error {
	n := len(events)
	records := make([]features.Record, n)
	for i, ev := range events {
		records[i] = features.Record{Inode: ev.Inode, Offset: ev.Offset, Time: ev.Time, Write: ev.Point == trace.WritebackDirtyPage}
	}

	tr := trace.New()
	tr.Register(func(trace.Event) {})
	r.layer("trace.emit_ns", timed(n, func() {
		for _, ev := range events {
			tr.Emit(ev)
		}
	}))

	newTuner := func() (*readahead.Tuner, error) {
		dev := blockdev.New(spec.cfg(r.opt.seed).Profile, clock.New())
		return readahead.NewTuner(dev, readahead.NewNNClassifier(net), norm, readahead.TunerConfig{Window: size.window})
	}
	// drainEvery matches the pipeline's batch size: the ring is emptied, as
	// a MaybeTick between operations does, before a batch can pile up.
	const drainEvery = 256
	tuner, err := newTuner()
	if err != nil {
		return err
	}
	hook := tuner.Hook()
	tuner.MaybeTick(0) // arms the first window; later ticks at 0 never decide
	r.layer("readahead.collect_ns", timed(n, func() {
		for i, ev := range events {
			hook(ev)
			if i%drainEvery == drainEvery-1 {
				tuner.MaybeTick(0)
			}
		}
		tuner.MaybeTick(0)
	}))
	const idleTicks = 1024
	r.layer("readahead.tick_idle_ns", timed(idleTicks, func() {
		for i := 0; i < idleTicks; i++ {
			tuner.MaybeTick(0)
		}
	}))
	r.rep.check(len(tuner.Decisions()) == 0, "idle ticks made %d decisions", len(tuner.Decisions()))

	if tuner, err = newTuner(); err != nil {
		return err
	}
	hook = tuner.Hook()
	now := time.Duration(0)
	tuner.MaybeTick(now)
	next := 0
	r.layer("readahead.tick_decide_ns", func() (int, time.Duration) {
		for i := 0; i < drainEvery; i++ {
			hook(events[next%n])
			next++
		}
		now += size.window
		start := time.Now()
		tuner.MaybeTick(now)
		return 1, time.Since(start)
	})
	r.rep.check(tuner.Dropped() == 0, "decide loop dropped %d samples", tuner.Dropped())

	ring := ringbuf.New[features.Record](1 << 16)
	batch := make([]features.Record, drainEvery)
	r.layer("ringbuf.push_pop_ns", timed(n, func() {
		for i, rec := range records {
			ring.TryPush(rec)
			if i%drainEvery == drainEvery-1 {
				sink += ring.PopBatch(batch)
			}
		}
		for ring.Len() > 0 {
			sink += ring.PopBatch(batch)
		}
	}))

	ext := features.NewExtractor()
	r.layer("features.add_ns", timed(n, func() {
		for _, rec := range records {
			ext.Add(rec)
		}
	}))

	// Emit is a handful of float operations, far below the clock's
	// resolution: fill many extractors untimed, then time emitting them all.
	exts := make([]features.Extractor, 1024)
	buf := make([]float64, features.Count)
	r.layer("features.emit_normalize_ns", func() (int, time.Duration) {
		for i := range exts {
			for j := 0; j < 8; j++ {
				exts[i].Add(records[(i*8+j)%n])
			}
		}
		start := time.Now()
		for i := range exts {
			norm.ApplyInto(buf, exts[i].Emit(256))
		}
		return len(exts), time.Since(start)
	})
	return nil
}
