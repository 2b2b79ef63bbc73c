package sim

import (
	"testing"

	"repro/internal/blockdev"
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
