// Online (in-kernel-style) training: §3.3 of the paper argues for training
// *inside* the OS — "we also tried training the same neural networks
// directly in the kernel without having separate data collection... both
// the in-kernel trained readahead model and the user-space one performed
// well."
//
//	go run ./examples/online-training
//
// This example reproduces that mode: tracepoints stream through the KML
// lock-free ring, which is drained between short chunks of the running
// workload into a trainer that aggregates windows, normalizes them with
// running statistics, and performs one SGD iteration per window — all
// while the workload keeps running. The trainer is then switched from
// training to inference mode (§3.3: "one can switch between training and
// inference modes as needed") and evaluated on fresh windows from every
// workload.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/internal/blockdev"
	"repro/internal/features"
	"repro/internal/nn"
	"repro/internal/readahead"
	"repro/internal/ringbuf"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// onlineTrainer consumes the drained ring: it owns the extractor, running
// normalization statistics, and the network.
type onlineTrainer struct {
	ext         *features.Extractor
	norm        [features.NumCandidates]stats.Running
	calibrating bool // phase 0: gather normalization stats only
	training    bool // train on each window; otherwise evaluate it
	net         *nn.Network
	loss        *nn.CrossEntropy
	opt         *nn.SGD
	batch       *nn.Mat
	label       int // set by the harness: the phase's ground truth
	windowSize  uint64
	iterations  int
	correct     int
	predicted   int
	confusion   [workload.NumClasses][workload.NumClasses]int
	// Replay buffer: online training sees long single-class stretches, so
	// training only on the newest window makes the model chase the current
	// phase and forget the rest (it ends up perpetually one phase behind).
	// Mixing each update with a few replayed samples — the standard
	// continual-learning remedy — restores i.i.d.-like updates.
	replayX []features.Vector
	replayY []int
	rng     *rand.Rand
}

func newOnlineTrainer(seed int64, windowSize uint64) *onlineTrainer {
	return &onlineTrainer{
		ext:  features.NewExtractor(),
		rng:  rand.New(rand.NewSource(seed)),
		net:  readahead.NewModel(seed),
		loss: nn.NewCrossEntropy(),
		// Online updates use a gentler step than the paper's offline
		// minibatch settings; the replay mix supplies the variance
		// reduction that shuffled epochs provide offline.
		opt:        nn.NewSGD(0.005, 0.9),
		batch:      nn.NewMat(1, features.Count),
		windowSize: windowSize,
	}
}

// handle consumes one drained batch of samples.
func (o *onlineTrainer) handle(batch []features.Record) {
	for _, r := range batch {
		o.ext.Add(r)
		if o.ext.Events() < o.windowSize {
			continue
		}
		raw := o.ext.Emit(256)
		if o.calibrating {
			// Phase 0: fit the Z-score statistics, as the paper fits its
			// normalizer before training.
			for i := range raw {
				o.norm[i].Add(raw[i])
			}
			continue
		}
		normed := o.normalize(raw)
		features.SelectInto(o.batch.Row(0), normed)
		if o.training {
			o.trainReplay(normed, o.label)
			o.iterations++
			continue
		}
		o.predicted++
		var buf nn.PredictBuffer
		got := o.net.Predict(o.batch.Row(0), &buf)
		o.confusion[o.label][got]++
		if got == o.label {
			o.correct++
		}
	}
}

// trainReplay performs one online update: the fresh window plus three
// samples replayed from the reservoir.
const replayCap = 256

func (o *onlineTrainer) trainReplay(normed features.Vector, label int) {
	// Reservoir-sample into the replay buffer.
	if len(o.replayX) < replayCap {
		o.replayX = append(o.replayX, normed)
		o.replayY = append(o.replayY, label)
	} else if j := o.rng.Intn(o.iterations + 1); j < replayCap {
		o.replayX[j] = normed
		o.replayY[j] = label
	}
	// Several replay-heavy updates per window: training runs between
	// workload chunks, where it costs no virtual time, and single-pass
	// online SGD underfits the noisy real stream.
	const (
		mix     = 8
		updates = 4
	)
	batch := nn.NewMat(mix, features.Count)
	labels := make([]int, mix)
	for u := 0; u < updates; u++ {
		features.SelectInto(batch.Row(0), normed)
		labels[0] = label
		for i := 1; i < mix; i++ {
			j := o.rng.Intn(len(o.replayX))
			features.SelectInto(batch.Row(i), o.replayX[j])
			labels[i] = o.replayY[j]
		}
		o.net.TrainBatch(batch, nn.ClassTarget(labels), o.loss, o.opt)
	}
}

func (o *onlineTrainer) normalize(raw features.Vector) features.Vector {
	var out features.Vector
	for i, x := range raw {
		z := stats.ZScore{Mean: o.norm[i].Mean(), StdDev: o.norm[i].StdDev()}
		v := z.Apply(x)
		if v > 3 {
			v = 3
		}
		if v < -3 {
			v = -3
		}
		out[i] = v
	}
	return out
}

func main() {
	cfg := sim.Config{Profile: blockdev.NVMe(), Keys: 6000, CachePages: 480, Seed: 21}
	trainer := newOnlineTrainer(21, 4096)
	trainer.training = true
	ring := ringbuf.New[features.Record](1 << 16)
	drained := make([]features.Record, 256)
	drain := func() {
		for n := ring.PopBatch(drained); n > 0; n = ring.PopBatch(drained) {
			trainer.handle(drained[:n])
		}
	}

	// Online training sees samples in workload order, so phases rotate
	// quickly: long single-class stretches with momentum 0.99 would make
	// the model forget earlier classes (the online-learning analogue of
	// shuffling minibatches).
	runPhases := func(label string, rotations int, phase time.Duration) {
		for rot := 0; rot < rotations; rot++ {
			for _, kind := range workload.TrainingKinds() {
				env, err := sim.NewEnv(cfg)
				if err != nil {
					log.Fatal(err)
				}
				env.Tracer.Register(func(ev trace.Event) {
					ring.TryPush(features.Record{
						Inode:  ev.Inode,
						Offset: ev.Offset,
						Time:   ev.Time,
						Write:  ev.Point == trace.WritebackDirtyPage,
					})
				})
				trainer.label = kind.Class()
				runner := env.NewRunner(kind)
				// Run the phase in chunks of at most 10 ms of virtual time
				// and drain the ring after each one. The last chunk ends at
				// the phase's deadline, so the phase runs exactly the
				// operations of one RunFor(phase).
				deadline := env.Clk.Now() + phase
				for now := env.Clk.Now(); now < deadline; now = env.Clk.Now() {
					if err := runner.RunFor(min(10*time.Millisecond, deadline-now)); err != nil {
						log.Fatal(err)
					}
					drain()
				}
			}
		}
		fmt.Printf("%s: %d online training iterations, %d samples dropped\n",
			label, trainer.iterations, ring.Dropped())
	}

	fmt.Println("phase 0: calibrating normalization statistics...")
	trainer.calibrating = true
	runPhases("calibration", 1, 2*time.Second)
	trainer.calibrating = false

	fmt.Println("phase 1: online training while workloads run...")
	runPhases("training", 16, 300*time.Millisecond)

	fmt.Println("phase 2: switch to inference mode and evaluate...")
	trainer.training = false
	runPhases("inference", 1, 2*time.Second)

	if trainer.predicted == 0 {
		log.Fatal("no inference windows observed")
	}
	fmt.Printf("online-trained model accuracy on live windows: %.1f%% (%d windows)\n",
		float64(trainer.correct)/float64(trainer.predicted)*100, trainer.predicted)
	fmt.Println("confusion (rows = truth, cols = predicted):")
	for c := range trainer.confusion {
		fmt.Printf("  %-22s %v\n", workload.TrainingKinds()[c], trainer.confusion[c])
	}
}
