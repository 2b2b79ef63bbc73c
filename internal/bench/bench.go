// Package bench is the experiment harness that regenerates every table and
// figure in the paper's evaluation (§4) on the simulated stack:
//
//   - the readahead sweep ("studying the problem"): workloads × 20
//     readahead values × devices, and the best-value map it yields;
//   - Table 2: KML-tuned vs vanilla throughput ratios for six workloads on
//     NVMe and SATA SSD, for both model families (NN and decision tree);
//   - Figure 2: the per-second mixgraph timeline of throughput and the
//     readahead value the model chooses;
//   - the k-fold cross-validation accuracy (95.5% in the paper);
//   - the overhead study (per-event collection cost, inference and
//     training latency, model memory) — the latency pieces live in
//     bench_test.go as testing.B benchmarks since they measure real time.
//
// EXPERIMENTS.md records paper-vs-measured numbers for each.
package bench

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"repro/internal/blockdev"
	"repro/internal/features"
	"repro/internal/mserve"
	"repro/internal/readahead"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Result is one workload run's outcome.
type Result struct {
	Workload  workload.Kind
	Device    string
	RASectors int // fixed setting, or -1 for KML-tuned runs
	Ops       uint64
	Duration  time.Duration
	HitRate   float64
	SpecPages uint64 // speculative pages the device fetched
	Dropped   uint64 // ring-buffer drops (KML runs)
}

// OpsPerSec returns throughput in operations per virtual second.
func (r Result) OpsPerSec() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Duration.Seconds()
}

// RunFixedRA runs one workload on a fresh environment with a fixed device
// readahead — both the vanilla baseline (DefaultReadaheadSectors) and the
// sweep's data points.
func RunFixedRA(simCfg sim.Config, kind workload.Kind, seconds int, raSectors int) (Result, error) {
	res, _, err := run(simCfg, kind, seconds, raSectors, nil)
	return res, err
}

// RunVanilla runs the unmodified-system baseline: the Linux default
// readahead under the stock heuristic.
func RunVanilla(simCfg sim.Config, kind workload.Kind, seconds int) (Result, error) {
	return RunFixedRA(simCfg, kind, seconds, blockdev.DefaultReadaheadSectors)
}

// Bundle is a deployable model: the model file plus its fitted
// normalizer, the unit the paper moves from training to deployment. The
// artifact is the one kml-served serves; every experiment cell decides
// with its own Instance of it.
type Bundle struct {
	Artifact *mserve.Artifact
	Norm     features.Normalizer
}

// newBundle wraps a saved model as an unregistered artifact of kind.
func newBundle(kind mserve.ModelKind, name string, save func(io.Writer) error, norm features.Normalizer) (Bundle, error) {
	var buf bytes.Buffer
	if err := save(&buf); err != nil {
		return Bundle{}, err
	}
	art := &mserve.Artifact{Version: mserve.Version{Kind: kind, Name: name}, Data: buf.Bytes()}
	return Bundle{Artifact: art, Norm: norm}, nil
}

// newTuner instantiates the bundle's model for one cell and wraps it in a
// readahead tuner over dev.
func (b *Bundle) newTuner(dev *blockdev.Device) (*readahead.Tuner, error) {
	inst, err := b.Artifact.Instantiate()
	if err != nil {
		return nil, err
	}
	return readahead.NewTuner(dev, inst, b.Norm, readahead.TunerConfig{})
}

// RunKML runs a workload with the KML tuner in the loop and returns the
// result plus the per-second tuning decisions (the Figure-2 series).
func RunKML(simCfg sim.Config, kind workload.Kind, seconds int, b Bundle) (Result, []readahead.Decision, error) {
	return run(simCfg, kind, seconds, blockdev.DefaultReadaheadSectors, &b)
}

// run is one experiment cell: kind runs for seconds of virtual time on a
// fresh environment whose device readahead starts at raSectors and, with a
// bundle, is driven by the KML tuner from there (Step, then MaybeTick).
func run(simCfg sim.Config, kind workload.Kind, seconds, raSectors int, b *Bundle) (Result, []readahead.Decision, error) {
	env, err := sim.NewEnv(simCfg)
	if err != nil {
		return Result{}, nil, err
	}
	env.Dev.SetReadahead(raSectors)
	var tuner *readahead.Tuner
	if b != nil {
		if tuner, err = b.newTuner(env.Dev); err != nil {
			return Result{}, nil, err
		}
		env.Tracer.Register(tuner.Hook())
		raSectors = -1
	}
	runner := env.NewRunner(kind)
	start := env.Clk.Now()
	deadline := start + time.Duration(seconds)*time.Second
	for env.Clk.Now() < deadline {
		if err := runner.Step(); err != nil {
			return Result{}, nil, err
		}
		if tuner != nil {
			tuner.MaybeTick(env.Clk.Now())
		}
	}
	res := Result{
		Workload:  kind,
		Device:    env.Dev.Profile().Name,
		RASectors: raSectors,
		Ops:       runner.Ops(),
		Duration:  env.Clk.Now() - start,
		HitRate:   env.Cache.Stats().HitRate(),
		SpecPages: env.Dev.Stats().PagesSpec,
	}
	if tuner == nil {
		return res, nil, nil
	}
	res.Dropped = tuner.Dropped()
	return res, tuner.Decisions(), nil
}

// TrainNNBundle executes the full paper workflow: collect labeled windows
// from the four training workloads on the training device, fit the
// normalizer, train the neural network and save it as a KindNN artifact
// named readahead-nn. It returns the bundle plus the raw dataset for reuse
// (cross-validation, decision tree, Pearson report).
func TrainNNBundle(trainCfg sim.Config, dcfg readahead.DatasetConfig, tcfg readahead.TrainConfig) (Bundle, []features.Vector, []int, error) {
	raw, labels, err := readahead.CollectDataset(trainCfg, dcfg)
	if err != nil {
		return Bundle{}, nil, nil, err
	}
	if len(raw) == 0 {
		return Bundle{}, nil, nil, fmt.Errorf("bench: empty dataset")
	}
	norm := features.FitNormalizer(raw)
	normed := norm.ApplyAll(raw)
	net := readahead.NewModel(tcfg.Seed)
	readahead.TrainModel(net, normed, labels, tcfg)
	b, err := newBundle(mserve.KindNN, "readahead-nn", net.Save, norm)
	return b, raw, labels, err
}

// TrainTreeBundle trains the decision-tree variant on an already-collected
// dataset and saves it as a KindDTree artifact named readahead-dtree.
func TrainTreeBundle(raw []features.Vector, labels []int) (Bundle, error) {
	norm := features.FitNormalizer(raw)
	tree, err := readahead.TrainTree(norm.ApplyAll(raw), labels)
	if err != nil {
		return Bundle{}, err
	}
	return newBundle(mserve.KindDTree, "readahead-dtree", tree.Save, norm)
}
