// Package sim assembles the full simulated storage stack — virtual clock,
// block device, page cache, tracer, filesystem, and LSM store — into one
// environment, pre-filled with the benchmark key space. It is the shared
// substrate for the experiment harness (internal/bench), the readahead
// application's training-data collection, the examples and the commands.
package sim

import (
	"time"

	"repro/internal/blockdev"
	"repro/internal/clock"
	"repro/internal/kvstore"
	"repro/internal/pagecache"
	"repro/internal/trace"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// Config parameterizes an environment. The defaults give the dataset-to-
// cache ratio (~1.6×) under which readahead pollution matters, as on the
// paper's testbed where the RocksDB working set exceeded RAM.
type Config struct {
	// Profile is the device model; required (blockdev.NVMe()/SATASSD()).
	Profile blockdev.Profile
	// CachePages sizes the page cache; 0 means 8192 pages (32 MB).
	CachePages int
	// Keys is the benchmark key-space size; 0 means 120,000.
	Keys int
	// ValueSize is the value payload; 0 means 400 bytes.
	ValueSize int
	// CPUGet, CPUScanStep and CPUPut are the serialized software costs per
	// operation type; zero values take the workload package defaults
	// (2 µs / 1 µs / 2 µs), calibrated for the aggregate multi-threaded
	// db_bench client the runner models.
	CPUGet      time.Duration
	CPUScanStep time.Duration
	CPUPut      time.Duration
	// Seed drives all randomness; the zero seed is valid.
	Seed int64
}

// WithDefaults fills zero fields.
func (c Config) WithDefaults() Config {
	if c.CachePages == 0 {
		c.CachePages = 8192
	}
	if c.Keys == 0 {
		c.Keys = 120_000
	}
	if c.ValueSize == 0 {
		c.ValueSize = 400
	}
	return c
}

// Env is one assembled simulation environment.
type Env struct {
	Cfg    Config
	Clk    *clock.Virtual
	Dev    *blockdev.Device
	Cache  *pagecache.Cache
	Tracer *trace.Tracer
	FS     *vfs.FS
	DB     *kvstore.DB
}

// NewEnv builds and fills an environment. After filling, the page cache is
// dropped and device/cache statistics are reset, matching the paper's
// "we clear the cache after every run" methodology.
func NewEnv(cfg Config) (*Env, error) {
	cfg = cfg.WithDefaults()
	clk := clock.New()
	dev := blockdev.New(cfg.Profile, clk)
	tracer := trace.New()
	cache := pagecache.New(pagecache.Config{CapacityPages: cfg.CachePages}, clk, dev, tracer)
	fs := vfs.New(cache)
	db, err := kvstore.Open(fs, kvstore.Options{Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	// Fill with tracing off: load traffic is not part of any experiment.
	tracer.SetEnabled(false)
	if err := workload.Fill(db, e2wcfg(cfg)); err != nil {
		return nil, err
	}
	cache.DropAll()
	cache.ResetStats()
	dev.ResetStats()
	tracer.SetEnabled(true)
	return &Env{Cfg: cfg, Clk: clk, Dev: dev, Cache: cache, Tracer: tracer, FS: fs, DB: db}, nil
}

func e2wcfg(cfg Config) workload.Config {
	return workload.Config{
		Keys:        cfg.Keys,
		ValueSize:   cfg.ValueSize,
		CPUGet:      cfg.CPUGet,
		CPUScanStep: cfg.CPUScanStep,
		CPUPut:      cfg.CPUPut,
		Seed:        cfg.Seed,
	}
}

// WorkloadConfig returns the workload configuration matching the fill.
func (e *Env) WorkloadConfig() workload.Config { return e2wcfg(e.Cfg) }

// NewRunner builds a runner for kind against this environment.
func (e *Env) NewRunner(kind workload.Kind) *workload.Runner {
	return workload.NewRunner(kind, e.DB, e.Clk, e.WorkloadConfig())
}
