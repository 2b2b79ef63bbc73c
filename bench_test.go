// Benchmarks regenerating every table and figure of the paper's evaluation
// (§4) at reduced scale, plus the ablations called out in DESIGN.md §5.
// Experiment IDs (E1..E7) refer to DESIGN.md's per-experiment index; the
// hot-path benchmarks of E8 and E10–E12 sit next to the budget gates that
// enforce them, in internal/dtrace, tsrec, blackbox and mserve.
//
// Macro-benchmarks (Table 2, the sweep, Figure 2) run complete simulated
// experiments per iteration and report their results through
// b.ReportMetric: `speedup` is KML-tuned over vanilla throughput (the
// paper's Table-2 numbers), `best_ra_sectors` is the sweep's optimum,
// `acc_pct` is classification accuracy. Wall-clock ns/op is meaningless
// for those; the metrics are the output. Micro-benchmarks (inference,
// training, collection) measure real time and correspond to the paper's
// overhead study. Run with:
//
//	go test -bench=. -benchmem
package repro

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/blockdev"
	"repro/internal/features"
	"repro/internal/nn"
	"repro/internal/readahead"
	"repro/internal/ringbuf"
	"repro/internal/sim"
	"repro/internal/workload"
)

// benchNVMe/benchSSD are the reduced-scale (-quick) environments: 8×
// smaller key space and cache than the full configuration with the same
// dataset-to-cache ratio, the same scale the cmd/kml-* -quick runs use.
func benchNVMe() sim.Config {
	return bench.QuickConfig(bench.DefaultNVMeConfig(1))
}

func benchSSD() sim.Config {
	return bench.QuickConfig(bench.DefaultSSDConfig(1))
}

// trained bundles are expensive; share them across benchmarks.
var (
	bundleOnce sync.Once
	nnBundle   bench.Bundle
	treeBundle bench.Bundle
	rawWindows []features.Vector
	rawLabels  []int
	bundleErr  error
)

func bundles(b *testing.B) (bench.Bundle, bench.Bundle) {
	b.Helper()
	bundleOnce.Do(func() {
		nnBundle, rawWindows, rawLabels, bundleErr = bench.TrainNNBundle(benchNVMe(),
			readahead.DatasetConfig{SecondsPerRun: 8},
			readahead.TrainConfig{Seed: 1})
		if bundleErr != nil {
			return
		}
		treeBundle, bundleErr = bench.TrainTreeBundle(rawWindows, rawLabels)
	})
	if bundleErr != nil {
		b.Fatal(bundleErr)
	}
	return nnBundle, treeBundle
}

// BenchmarkE1_Sweep regenerates the "studying the problem" study: the
// throughput-vs-readahead surface and the best value per workload.
func BenchmarkE1_Sweep(b *testing.B) {
	for _, kind := range []workload.Kind{workload.ReadSeq, workload.ReadRandom} {
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := bench.RunSweepParallel(benchSSD(), []workload.Kind{kind},
					[]int{8, 64, 256, 1024}, 2, 1)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Best[0]), "best_ra_sectors")
			}
		})
	}
}

// BenchmarkE2_KFoldAccuracy regenerates the paper's 95.5% k-fold
// cross-validation accuracy claim (reported as acc_pct).
func BenchmarkE2_KFoldAccuracy(b *testing.B) {
	bundles(b) // collects rawWindows
	for i := 0; i < b.N; i++ {
		accs := readahead.KFoldCV(rawWindows, rawLabels, 5, readahead.TrainConfig{Seed: 1})
		b.ReportMetric(readahead.Mean(accs)*100, "acc_pct")
	}
}

// BenchmarkE3_Table2 regenerates Table 2: per-workload KML/vanilla speedup
// on both device models with the neural network.
func BenchmarkE3_Table2(b *testing.B) {
	nnB, _ := bundles(b)
	for _, dev := range []struct {
		name string
		cfg  sim.Config
	}{{"NVMe", benchNVMe()}, {"SSD", benchSSD()}} {
		for _, kind := range workload.AllKinds() {
			b.Run(dev.name+"/"+kind.String(), func(b *testing.B) {
				// 5-second runs amortize the untuned first (cold) second,
				// matching the archived cmd/kml-table2 -quick methodology.
				for i := 0; i < b.N; i++ {
					base, err := bench.RunVanilla(dev.cfg, kind, 5)
					if err != nil {
						b.Fatal(err)
					}
					tuned, _, err := bench.RunKML(dev.cfg, kind, 5, nnB)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(tuned.OpsPerSec()/base.OpsPerSec(), "speedup")
					b.ReportMetric(tuned.OpsPerSec(), "kml_ops/vsec")
				}
			})
		}
	}
}

// BenchmarkE6_Table2DTree regenerates the decision-tree variant of Table 2
// (the paper summarizes it as SSD 55% / NVMe 26% average gain).
func BenchmarkE6_Table2DTree(b *testing.B) {
	_, treeB := bundles(b)
	for _, kind := range []workload.Kind{workload.ReadRandom, workload.MixGraph} {
		b.Run("SSD/"+kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				base, err := bench.RunVanilla(benchSSD(), kind, 5)
				if err != nil {
					b.Fatal(err)
				}
				tuned, _, err := bench.RunKML(benchSSD(), kind, 5, treeB)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(tuned.OpsPerSec()/base.OpsPerSec(), "speedup")
			}
		})
	}
}

// BenchmarkE4_Figure2 regenerates the mixgraph timeline of Figure 2 and
// reports the overall speedup (the paper reports ~2.09× on their NVMe).
func BenchmarkE4_Figure2(b *testing.B) {
	nnB, _ := bundles(b)
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFigure2(benchNVMe(), 6, nnB)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Speedup, "speedup")
	}
}

// --- E5: the overhead study (real wall-clock measurements) ---

// BenchmarkE5_Inference measures readahead-model inference latency
// (paper: 21 µs).
func BenchmarkE5_Inference(b *testing.B) {
	net := readahead.NewModel(1)
	cls := readahead.NewNNClassifier(net)
	in := make([]float64, features.Count)
	cls.Predict(in)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cls.Predict(in)
	}
}

// BenchmarkE5_FixedInference measures the FPU-less Q16.16 inference path
// (E7: the quantized variant).
func BenchmarkE5_FixedInference(b *testing.B) {
	net := readahead.NewModel(1)
	cls, err := readahead.NewFixedClassifier(net)
	if err != nil {
		b.Fatal(err)
	}
	in := make([]float64, features.Count)
	cls.Predict(in)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cls.Predict(in)
	}
}

// batchFeatures builds rows feature vectors of deterministic noise,
// flattened row-major as PredictBatch expects.
func batchFeatures(rows int) []float64 {
	rng := rand.New(rand.NewSource(7))
	out := make([]float64, rows*features.Count)
	for i := range out {
		out[i] = rng.Float64()*2 - 1
	}
	return out
}

// BenchmarkE5_InferenceBatched measures the batched float32 inference
// path (nn.Float32Network.InferBatch) at several batch sizes. The
// ns/sample metric is per-sample latency: at batch 64 it amortizes the
// per-call overhead and the fused multiply-bias kernel across the batch,
// and is the number to compare against BenchmarkE5_Inference.
func BenchmarkE5_InferenceBatched(b *testing.B) {
	for _, rows := range []int{1, 16, 64, 256} {
		b.Run(fmt.Sprintf("rows%d", rows), func(b *testing.B) {
			net := readahead.NewModel(1)
			fnet, err := nn.CompileFloat32(net)
			if err != nil {
				b.Fatal(err)
			}
			in := batchFeatures(rows)
			classes := make([]int, rows)
			fnet.InferBatch(in, rows, classes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fnet.InferBatch(in, rows, classes)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/sample")
		})
	}
}

// BenchmarkE5_FixedInferenceBatched measures the batched Q16.16
// fixed-point inference path at batch 64 (the kernelspace batch shape).
func BenchmarkE5_FixedInferenceBatched(b *testing.B) {
	const rows = 64
	net := readahead.NewModel(1)
	cls, err := readahead.NewFixedClassifier(net)
	if err != nil {
		b.Fatal(err)
	}
	in := batchFeatures(rows)
	classes := make([]int, rows)
	cls.PredictBatch(in, rows, classes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cls.PredictBatch(in, rows, classes)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/sample")
}

// BenchmarkE5_TrainingIteration measures one online training iteration
// (paper: 51 µs).
func BenchmarkE5_TrainingIteration(b *testing.B) {
	net := readahead.NewModel(1)
	loss := nn.NewCrossEntropy()
	opt := nn.NewSGD(0.01, 0.99)
	batch := nn.NewMat(1, features.Count)
	// Targets are prebuilt so the loop measures the training step alone;
	// the step itself must be allocation-free.
	var targets [workload.NumClasses]nn.Target
	for c := range targets {
		targets[c] = nn.ClassTarget([]int{c})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.TrainBatch(batch, targets[i%workload.NumClasses], loss, opt)
	}
}

// BenchmarkE5_DataCollection measures the inline per-tracepoint cost
// (paper: 49 ns including normalization; here the ring push alone, with
// aggregation measured separately by BenchmarkE5_FeatureAggregation).
func BenchmarkE5_DataCollection(b *testing.B) {
	ring := ringbuf.New[features.Record](1 << 16)
	drained := make([]features.Record, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ring.TryPush(features.Record{Inode: 1, Offset: int64(i)})
		if i&4095 == 4095 {
			b.StopTimer()
			ring.PopBatch(drained)
			b.StartTimer()
		}
	}
}

// BenchmarkE5_FeatureAggregation measures the per-event normalization/
// aggregation work the tuner's tick does for each drained record.
func BenchmarkE5_FeatureAggregation(b *testing.B) {
	ext := features.NewExtractor()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ext.Add(features.Record{Inode: 1, Offset: int64(i % 100000)})
	}
}

// BenchmarkAblation_InferencePrecision compares the three matrix
// precisions the paper supports (double, float, and integer/fixed-point)
// on the same trained readahead model.
func BenchmarkAblation_InferencePrecision(b *testing.B) {
	net := readahead.NewModel(1)
	in := make([]float64, features.Count)
	b.Run("float64", func(b *testing.B) {
		cls := readahead.NewNNClassifier(net)
		cls.Predict(in)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cls.Predict(in)
		}
	})
	b.Run("float32", func(b *testing.B) {
		cls, err := nn.CompileFloat32(net)
		if err != nil {
			b.Fatal(err)
		}
		cls.Predict(in)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cls.Predict(in)
		}
	})
	b.Run("fixed-q16", func(b *testing.B) {
		cls, err := readahead.NewFixedClassifier(net)
		if err != nil {
			b.Fatal(err)
		}
		cls.Predict(in)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cls.Predict(in)
		}
	})
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblation_ClassifyVsOracle compares the trained classifier
// against an oracle that always picks the per-workload best fixed value,
// bounding how much of the attainable gain the model captures.
func BenchmarkAblation_ClassifyVsOracle(b *testing.B) {
	nnB, _ := bundles(b)
	for i := 0; i < b.N; i++ {
		base, err := bench.RunVanilla(benchSSD(), workload.ReadRandom, 3)
		if err != nil {
			b.Fatal(err)
		}
		oracle, err := bench.RunFixedRA(benchSSD(), workload.ReadRandom, 3, 8)
		if err != nil {
			b.Fatal(err)
		}
		tuned, _, err := bench.RunKML(benchSSD(), workload.ReadRandom, 3, nnB)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(tuned.OpsPerSec()/base.OpsPerSec(), "kml_speedup")
		b.ReportMetric(oracle.OpsPerSec()/base.OpsPerSec(), "oracle_speedup")
		b.ReportMetric(tuned.OpsPerSec()/oracle.OpsPerSec(), "kml_vs_oracle")
	}
}

// BenchmarkAblation_AsyncVsSyncCollection compares pushing samples onto
// the lock-free ring (the paper's design) against calling the feature
// extractor inline on the I/O path — the latency the ring buffer keeps off
// the hot path.
func BenchmarkAblation_AsyncVsSyncCollection(b *testing.B) {
	b.Run("async-ring", func(b *testing.B) {
		ring := ringbuf.New[features.Record](1 << 16)
		drained := make([]features.Record, 4096)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ring.TryPush(features.Record{Inode: 1, Offset: int64(i)})
			if i&4095 == 4095 {
				b.StopTimer()
				ring.PopBatch(drained)
				b.StartTimer()
			}
		}
	})
	b.Run("inline", func(b *testing.B) {
		ext := features.NewExtractor()
		norm := features.Normalizer{}
		buf := make([]float64, features.Count)
		net := readahead.NewModel(1)
		cls := readahead.NewNNClassifier(net)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ext.Add(features.Record{Inode: 1, Offset: int64(i)})
			if i&4095 == 4095 {
				// Inline windows pay normalization + inference on the
				// I/O path itself.
				norm.ApplyInto(buf, ext.Emit(256))
				cls.Predict(buf)
			}
		}
	})
}

// BenchmarkAblation_Baselines compares the vanilla heuristic baseline with
// an fadvise(RANDOM)-style static hint on the random workload: the static
// hint captures most of the gain when the workload is known a priori; KML's
// contribution is choosing it automatically and per second.
func BenchmarkAblation_Baselines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		vanilla, err := bench.RunVanilla(benchSSD(), workload.ReadRandom, 3)
		if err != nil {
			b.Fatal(err)
		}
		static, err := bench.RunFixedRA(benchSSD(), workload.ReadRandom, 3, blockdev.SectorsPerPage)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(static.OpsPerSec()/vanilla.OpsPerSec(), "static_hint_speedup")
	}
}

// BenchmarkAblation_PerFileVsDevice compares the two tuning surfaces of
// the paper's Figure 1: one device-wide readahead setting (the Tuner)
// versus per-file ra_pages updates (the FileTuner). Per-file tuning can
// give the random-access table file a minimal window while compaction
// streams keep large ones.
func BenchmarkAblation_PerFileVsDevice(b *testing.B) {
	nnB, _ := bundles(b)
	run := func(b *testing.B, perFile bool) float64 {
		env, err := sim.NewEnv(benchSSD())
		if err != nil {
			b.Fatal(err)
		}
		var tick func(time.Duration)
		if perFile {
			ft, err := readahead.NewFileTuner(env.Cache, env.Dev, nnB.Model, nnB.Norm, readahead.FileTunerConfig{})
			if err != nil {
				b.Fatal(err)
			}
			env.Tracer.Register(ft.Hook())
			tick = ft.MaybeTick
		} else {
			dt, err := readahead.NewTuner(env.Dev, nnB.Model, nnB.Norm, readahead.TunerConfig{})
			if err != nil {
				b.Fatal(err)
			}
			env.Tracer.Register(dt.Hook())
			tick = dt.MaybeTick
		}
		runner := env.NewRunner(workload.MixGraph)
		for env.Clk.Now() < 3*time.Second {
			if err := runner.Step(); err != nil {
				b.Fatal(err)
			}
			tick(env.Clk.Now())
		}
		return float64(runner.Ops()) / env.Clk.Now().Seconds()
	}
	for i := 0; i < b.N; i++ {
		device := run(b, false)
		file := run(b, true)
		b.ReportMetric(device, "device_ops/vsec")
		b.ReportMetric(file, "perfile_ops/vsec")
		b.ReportMetric(file/device, "perfile_vs_device")
	}
}

// BenchmarkAblation_WindowLength varies the tuner's decision interval
// around the paper's one-second choice.
func BenchmarkAblation_WindowLength(b *testing.B) {
	nnB, _ := bundles(b)
	for _, window := range []time.Duration{250 * time.Millisecond, time.Second, 4 * time.Second} {
		b.Run(window.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				env, err := sim.NewEnv(benchSSD())
				if err != nil {
					b.Fatal(err)
				}
				tuner, err := readahead.NewTuner(env.Dev, nnB.Model, nnB.Norm,
					readahead.TunerConfig{Window: window})
				if err != nil {
					b.Fatal(err)
				}
				env.Tracer.Register(tuner.Hook())
				runner := env.NewRunner(workload.MixGraph)
				deadline := 3 * time.Second
				for env.Clk.Now() < deadline {
					if err := runner.Step(); err != nil {
						b.Fatal(err)
					}
					tuner.MaybeTick(env.Clk.Now())
				}
				b.ReportMetric(float64(runner.Ops())/env.Clk.Now().Seconds(), "ops/vsec")
			}
		})
	}
}
