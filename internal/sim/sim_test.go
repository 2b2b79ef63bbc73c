package sim

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/kvstore"
	"repro/internal/pagecache"
	"repro/internal/workload"
)

func microConfig() Config {
	return Config{Profile: blockdev.NVMe(), Keys: 3000, CachePages: 256, Seed: 1}
}

// run executes n workload operations.
func run(r *workload.Runner, n int) error {
	for i := 0; i < n; i++ {
		if err := r.Step(); err != nil {
			return err
		}
	}
	return nil
}

func TestNewEnvFillsAndResets(t *testing.T) {
	env, err := NewEnv(microConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Data is loaded...
	if _, ok, err := env.DB.Get(workload.Key(0)); !ok || err != nil {
		t.Fatalf("key 0 missing: %v %v", ok, err)
	}
	// ...but the run starts cold and with clean stats, except for the Get
	// above.
	env2, err := NewEnv(microConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s := env2.Dev.Stats(); s.SyncReads != 0 || s.PagesWrit != 0 {
		t.Errorf("device stats not reset: %+v", s)
	}
	if env2.Tracer.Total() != 0 {
		t.Error("fill traffic leaked into tracepoint counts")
	}
	if _, _, err := env2.DB.Get(workload.Key(0)); err != nil {
		t.Fatal(err)
	}
	if s := env2.Cache.Stats(); s.Hits != 0 || s.Misses == 0 {
		t.Errorf("cache not dropped after fill: the first read gave %+v", s)
	}
}

func TestDefaultsGivePollutionRegime(t *testing.T) {
	env, err := NewEnv(Config{Profile: blockdev.SATASSD()})
	if err != nil {
		t.Fatal(err)
	}
	var bytes int64
	for _, name := range env.FS.Names() {
		f, err := env.FS.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		bytes += f.Size()
	}
	ratio := float64(bytes/blockdev.PageSize) / float64(env.Cfg.CachePages)
	if ratio < 1.2 || ratio > 3 {
		t.Errorf("dataset/cache ratio %.2f outside the working-set-exceeds-RAM regime", ratio)
	}
}

func TestWorkloadConfigMapping(t *testing.T) {
	cfg := microConfig()
	env, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := env.WorkloadConfig()
	if w.Keys != cfg.Keys || w.Seed != cfg.Seed {
		t.Errorf("workload config %+v", w)
	}
}

func TestRunnerSeesFilledDB(t *testing.T) {
	env, err := NewEnv(microConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := env.NewRunner(workload.ReadRandom)
	if err := run(r, 100); err != nil {
		t.Fatal(err)
	}
	if r.Errs() != 0 {
		t.Errorf("errors: %d", r.Errs())
	}
	if env.Tracer.Total() == 0 {
		t.Error("workload produced no tracepoints")
	}
}

func TestDeterministicEnvironments(t *testing.T) {
	build := func() int64 {
		env, err := NewEnv(microConfig())
		if err != nil {
			t.Fatal(err)
		}
		r := env.NewRunner(workload.MixGraph)
		if err := run(r, 500); err != nil {
			t.Fatal(err)
		}
		return int64(env.Clk.Now())
	}
	if build() != build() {
		t.Error("identical configs must give identical simulations")
	}
}

// quickConfig is bench.QuickConfig of the default environment on prof:
// an 8× smaller key space and cache with the same dataset-to-cache ratio.
func quickConfig(prof blockdev.Profile) Config {
	return Config{Profile: prof, Keys: 120_000 / 8, CachePages: 8192 / 8, Seed: 1}
}

// outcome is everything a run leaves that the simulation can show: the
// clock, the runner's counts, every layer's statistics, the tracepoint
// total and every file's name, size and contents.
type outcome struct {
	now       time.Duration
	ops, errs uint64
	db        kvstore.DBStats
	tables    int
	cache     pagecache.Stats
	dev       blockdev.Stats
	events    uint64
	files     map[string]string // name → size and SHA-256
}

// outcomeOf takes the counts first and then reads every file, through
// the page cache, so env is spent after it.
func outcomeOf(t *testing.T, env *Env, r *workload.Runner) outcome {
	t.Helper()
	o := outcome{
		now: env.Clk.Now(), ops: r.Ops(), errs: r.Errs(),
		db: env.DB.Stats(), tables: env.DB.Tables(),
		cache: env.Cache.Stats(), dev: env.Dev.Stats(), events: env.Tracer.Total(),
		files: make(map[string]string),
	}
	for _, name := range env.FS.Names() {
		f, err := env.FS.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		data, err := f.View(0, int(f.Size()))
		if err != nil {
			t.Fatal(err)
		}
		o.files[name] = fmt.Sprintf("%d %x", len(data), sha256.Sum256(data))
	}
	return o
}

// pass is one way of running an environment: a workload, how many
// operations, and what changes half-way.
type pass struct {
	name string
	kind workload.Kind
	ops  int
	// before runs ahead of the first operation, midway half-way through.
	before, midway func(env *Env)
}

func (p pass) run(t *testing.T, env *Env) outcome {
	t.Helper()
	r := env.NewRunner(p.kind)
	for i, step := range []func(*Env){p.before, p.midway} {
		if step != nil {
			step(env)
		}
		for n := 0; n < p.ops/2; n++ {
			if err := r.Step(); err != nil {
				t.Fatalf("%s: after %d operations of part %d: %v", p.name, n, i, err)
			}
		}
	}
	return outcomeOf(t, env, r)
}

// clonePasses are the runs a clone must reproduce: every workload with the
// device readahead lowered half-way, and a readseq at the largest device
// readahead, whose windows run past the end of the table so that they
// clamp at EOF.
func clonePasses() []pass {
	var passes []pass
	for _, kind := range workload.AllKinds() {
		passes = append(passes,
			pass{name: kind.String() + "/device-ra", kind: kind, ops: 20_000,
				midway: func(env *Env) { env.Dev.SetReadahead(32) }})
	}
	return append(passes, pass{name: "readseq/eof", kind: workload.ReadSeq, ops: 40_000,
		before: func(env *Env) { env.Dev.SetReadahead(16384) }})
}

// TestCloneMatchesFill runs every pass on a NewEnv copy and on a fresh
// fill of the same Config, on both devices, and requires the same
// outcome: a copy must simulate exactly what the fill it copies would.
func TestCloneMatchesFill(t *testing.T) {
	for _, prof := range []blockdev.Profile{blockdev.NVMe(), blockdev.SATASSD()} {
		cfg := quickConfig(prof).WithDefaults()
		for _, p := range clonePasses() {
			t.Run(prof.Name+"/"+p.name, func(t *testing.T) {
				fresh, err := fill(cfg)
				if err != nil {
					t.Fatal(err)
				}
				clone, err := NewEnv(cfg)
				if err != nil {
					t.Fatal(err)
				}
				want, got := p.run(t, fresh), p.run(t, clone)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("clone ran to\n%+v\na fresh fill to\n%+v", got, want)
				}
			})
		}
	}
}

// TestCloneUntouchedByRuns runs one copy hard — writes, flushes,
// compactions, a readahead change — and requires the next copy of the same
// Config to start where a fresh fill does.
func TestCloneUntouchedByRuns(t *testing.T) {
	cfg := quickConfig(blockdev.SATASSD()).WithDefaults()
	first, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	busy := pass{name: "updaterandom", kind: workload.UpdateRandom, ops: 40_000,
		midway: func(env *Env) { env.Dev.SetReadahead(16384) }}
	if o := busy.run(t, first); o.db.Flushes == 0 || o.db.Compactions == 0 {
		t.Fatalf("the busy run flushed %d and compacted %d times; it must do both", o.db.Flushes, o.db.Compactions)
	}
	p := pass{name: "mixgraph", kind: workload.MixGraph, ops: 20_000}
	fresh, err := fill(cfg)
	if err != nil {
		t.Fatal(err)
	}
	next, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.run(t, next), p.run(t, fresh); !reflect.DeepEqual(got, want) {
		t.Fatalf("after another copy ran, a copy ran to\n%+v\na fresh fill to\n%+v", got, want)
	}
}

var fillsOnceRuns atomic.Int64

// TestNewEnvFillsOnce has eight goroutines ask for one new Config at once
// and run what they get. They share the Config's one template, which its
// sync.Once fills once, and each must get its own copy of it: under -race
// this shows the fill and the copies are ordered, and the copies share no
// state that their runs write.
func TestNewEnvFillsOnce(t *testing.T) {
	cfg := microConfig()
	cfg.Seed = 100 + fillsOnceRuns.Add(1) // a Config nothing has filled, on every -count
	cfg = cfg.WithDefaults()
	envs := make([]*Env, 8)
	var wg sync.WaitGroup
	for i := range envs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			env, err := NewEnv(cfg)
			if err != nil {
				t.Error(err)
				return
			}
			if err := run(env.NewRunner(workload.UpdateRandom), 2000); err != nil {
				t.Error(err)
			}
			envs[i] = env
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	templates.Lock()
	tmpl := templates.m[cfg]
	templates.Unlock()
	if tmpl == nil || tmpl.env == nil {
		t.Fatal("no filled template for the Config")
	}
	for i, env := range envs {
		if env.DB == tmpl.env.DB || env.FS == tmpl.env.FS || env.Clk == tmpl.env.Clk {
			t.Fatalf("goroutine %d got the template itself", i)
		}
		if env.Clk.Now() != envs[0].Clk.Now() || env.DB.Stats() != envs[0].DB.Stats() {
			t.Fatalf("goroutine %d ran to %v %+v, goroutine 0 to %v %+v",
				i, env.Clk.Now(), env.DB.Stats(), envs[0].Clk.Now(), envs[0].DB.Stats())
		}
	}
}

// BenchmarkNewEnv prices an environment at full scale on the SATA SSD:
// cold is a fill, what the first NewEnv of a Config pays on top of a
// copy; warm is every later NewEnv, a copy of the filled template.
func BenchmarkNewEnv(b *testing.B) {
	cfg := Config{Profile: blockdev.SATASSD(), Seed: 1}.WithDefaults()
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := fill(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		if _, err := NewEnv(cfg); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := NewEnv(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}
