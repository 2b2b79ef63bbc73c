// Command kml-overhead reproduces the paper's overhead study (§4): the
// per-event data-collection and normalization cost (paper: ~49 ns), the
// readahead model's inference latency (paper: 21 µs), one training
// iteration (paper: 51 µs), and the model's memory footprint (paper:
// 3,916 B of model state plus 676 B of inference scratch). These are real
// wall-clock measurements of this implementation, not simulated time.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/features"
	"repro/internal/nn"
	"repro/internal/readahead"
	"repro/internal/ringbuf"
	"repro/internal/workload"
)

func main() {
	iters := flag.Int("iters", 200_000, "measurement iterations")
	seed := flag.Int64("seed", 1, "seed")
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	net := readahead.NewModel(*seed)

	// Representative normalized inputs.
	inputs := make([][]float64, 64)
	for i := range inputs {
		inputs[i] = make([]float64, features.Count)
		for j := range inputs[i] {
			inputs[i][j] = rng.NormFloat64()
		}
	}

	// 1. Data collection: one lock-free ring push per tracepoint.
	ring := ringbuf.New[features.Record](1 << 20)
	drained := make([]features.Record, 1024)
	start := time.Now()
	for i := 0; i < *iters; i++ {
		ring.TryPush(features.Record{Inode: 1, Offset: int64(i), Time: time.Duration(i)})
		if i%1024 == 1023 {
			ring.PopBatch(drained)
		}
	}
	collectNs := float64(time.Since(start).Nanoseconds()) / float64(*iters)

	// 2. Normalization/aggregation: one Extractor.Add per event.
	ext := features.NewExtractor()
	start = time.Now()
	for i := 0; i < *iters; i++ {
		ext.Add(features.Record{Inode: 1, Offset: int64(i % 100000), Time: time.Duration(i)})
	}
	extractNs := float64(time.Since(start).Nanoseconds()) / float64(*iters)

	// 3. Inference: float64 network.
	cls := readahead.NewNNClassifier(net)
	cls.Predict(inputs[0]) // warm buffers
	start = time.Now()
	for i := 0; i < *iters; i++ {
		cls.Predict(inputs[i%len(inputs)])
	}
	inferUs := float64(time.Since(start).Microseconds()) / float64(*iters)

	// 4. Inference: fixed-point (FPU-less) network.
	fcls, err := readahead.NewFixedClassifier(net)
	if err != nil {
		panic(err)
	}
	fcls.Predict(inputs[0])
	start = time.Now()
	for i := 0; i < *iters; i++ {
		fcls.Predict(inputs[i%len(inputs)])
	}
	fixedUs := float64(time.Since(start).Microseconds()) / float64(*iters)

	// 5. One training iteration (single-sample, as deployed online).
	loss := nn.NewCrossEntropy()
	opt := nn.NewSGD(0.01, 0.99)
	batch := nn.NewMat(1, features.Count)
	trainIters := *iters / 10
	start = time.Now()
	for i := 0; i < trainIters; i++ {
		copy(batch.Row(0), inputs[i%len(inputs)])
		net.TrainBatch(batch, nn.ClassTarget([]int{i % workload.NumClasses}), loss, opt)
	}
	trainUs := float64(time.Since(start).Microseconds()) / float64(trainIters)

	fmt.Println("KML readahead model overheads (this implementation, wall clock):")
	fmt.Printf("  data collection (ring push)     %8.1f ns/event   (paper: ~49 ns incl. normalization)\n", collectNs)
	fmt.Printf("  feature aggregation (Add)       %8.1f ns/event\n", extractNs)
	fmt.Printf("  inference (float64)             %8.3f µs          (paper: 21 µs)\n", inferUs)
	fmt.Printf("  inference (fixed Q16.16)        %8.3f µs\n", fixedUs)
	fmt.Printf("  training iteration (batch 1)    %8.3f µs          (paper: 51 µs)\n", trainUs)
	fmt.Println()
	fmt.Println("memory footprint:")
	fmt.Printf("  model parameters                %8d B          (paper: 3,916 B)\n", net.ParamBytes())
	fmt.Printf("  inference scratch               %8d B          (paper: 676 B)\n", net.InferenceScratchBytes())
	fnet, err := nn.CompileFixed(net)
	if err != nil {
		panic(err)
	}
	fmt.Printf("  fixed-point parameters          %8d B\n", fnet.ParamBytes())
}
