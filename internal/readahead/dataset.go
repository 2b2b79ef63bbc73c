package readahead

import (
	"time"

	"repro/internal/features"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// DatasetConfig parameterizes training-data collection.
type DatasetConfig struct {
	// SecondsPerRun is the virtual duration of each (workload, readahead)
	// run; 0 means 20.
	SecondsPerRun int
	// RASectors are the fixed readahead values runs are collected under,
	// so the model sees feature (v) vary as it will at deployment;
	// nil means {8, 64, 256, 1024}.
	RASectors []int
	// Window is the feature window; 0 means 1 second (paper: "we process
	// the collected data points every second").
	Window time.Duration
}

func (c DatasetConfig) withDefaults() DatasetConfig {
	if c.SecondsPerRun == 0 {
		c.SecondsPerRun = 20
	}
	if c.RASectors == nil {
		c.RASectors = []int{8, 64, 256, 1024}
	}
	if c.Window == 0 {
		c.Window = time.Second
	}
	return c
}

// CollectDataset reproduces the paper's data-collection stage: run each of
// the four training workloads on the given environment config (the paper
// used NVMe), under several fixed readahead settings, recording tracepoints
// through a hook and emitting one labeled raw feature vector per window.
func CollectDataset(simCfg sim.Config, cfg DatasetConfig) (raw []features.Vector, labels []int, err error) {
	cfg = cfg.withDefaults()
	for _, kind := range workload.TrainingKinds() {
		for _, ra := range cfg.RASectors {
			vs, err := collectRun(simCfg, cfg, kind, ra)
			if err != nil {
				return nil, nil, err
			}
			for _, v := range vs {
				raw = append(raw, v)
				labels = append(labels, kind.Class())
			}
		}
	}
	return raw, labels, nil
}

// collectRun runs one (workload, readahead) configuration on a fresh
// environment and returns its windows.
func collectRun(simCfg sim.Config, cfg DatasetConfig, kind workload.Kind, raSectors int) ([]features.Vector, error) {
	env, err := sim.NewEnv(simCfg)
	if err != nil {
		return nil, err
	}
	env.Dev.SetReadahead(raSectors)
	ext := features.NewExtractor()
	env.Tracer.Register(func(ev trace.Event) { ext.Add(recordOf(ev)) })
	runner := env.NewRunner(kind)
	var out []features.Vector
	start := env.Clk.Now()
	for s := 0; s < cfg.SecondsPerRun; s++ {
		deadline := start + time.Duration(s+1)*cfg.Window
		for env.Clk.Now() < deadline {
			if err := runner.Step(); err != nil {
				return nil, err
			}
		}
		v := ext.Emit(raSectors)
		if s == 0 {
			// Discard the cold-cache warmup window: the paper notes that
			// "when the benchmark starts, read-access patterns are
			// different than the rest of the execution".
			continue
		}
		out = append(out, v)
	}
	return out, nil
}
