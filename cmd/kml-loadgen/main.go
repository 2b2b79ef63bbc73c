// Command kml-loadgen is the fleet-scale load generator for the serving
// daemon: it models many independent clients (thousands of connections)
// each issuing inference requests on an OPEN-LOOP arrival schedule —
// Poisson or fixed-rate — rather than the closed request-response loop
// the repo benchmark's serve_* workloads run (benchmark/serve.go).
// Open-loop arrival is what makes server-side batch coalescing visible:
// requests land on the daemon whenever the schedule says, regardless of
// whether earlier ones finished, so concurrent arrivals from different
// connections share gather windows.
//
// Latency is measured from each request's SCHEDULED send time, not the
// actual write time, so a stalled server cannot hide queueing delay by
// slowing the generator down (no coordinated omission).
//
// The exit status is 1 when any request fails, warmup included, or when a
// step completes no request in its measured window, so the smoke scripts
// that drive daemon traffic with it can rely on it.
//
// Typical use, sweeping offered load against a coalescing daemon:
//
//	kml-served -addr /run/kml.sock -deploy readahead.kml -coalesce-window 100us -max-conns 1200 &
//	kml-loadgen -addr /run/kml.sock -conns 1000 -rates 5000,20000,80000 -duration 5s
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mserve"
)

func main() {
	var (
		network  = flag.String("network", "unix", "daemon network: unix or tcp")
		addr     = flag.String("addr", "kml-served.sock", "daemon address")
		conns    = flag.Int("conns", 1000, "concurrent client connections (one worker each)")
		rate     = flag.Float64("rate", 10000, "total offered load in requests/sec across all connections")
		rates    = flag.String("rates", "", "comma-separated offered-load sweep (overrides -rate)")
		duration = flag.Duration("duration", 3*time.Second, "measured time per offered-load step")
		warmup   = flag.Duration("warmup", 300*time.Millisecond, "per-step lead-in excluded from the stats")
		dist     = flag.String("dist", "poisson", "inter-arrival distribution: poisson or fixed")
		batch    = flag.Int("batch", 1, "rows per request (1 = single-inference protocol)")
		seed     = flag.Int64("seed", 1, "base seed; worker w uses seed+w, so runs are reproducible")
	)
	flag.Parse()
	if *conns <= 0 || *batch <= 0 {
		fatal(fmt.Errorf("conns and batch must be positive"))
	}
	if *dist != "poisson" && *dist != "fixed" {
		fatal(fmt.Errorf("unknown -dist %q (want poisson or fixed)", *dist))
	}
	sweep, err := parseRates(*rates, *rate)
	if err != nil {
		fatal(err)
	}

	probe, err := mserve.Dial(*network, *addr)
	if err != nil {
		fatal(err)
	}
	ok, version, inDim, err := probe.Health()
	if err != nil {
		fatal(err)
	}
	if !ok {
		fatal(fmt.Errorf("daemon at %s has no model deployed", *addr))
	}
	statsBefore, err := probe.Stats()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("kml-loadgen: %d conns against %s %s (model v%d, indim %d, %s arrivals)\n",
		*conns, *network, *addr, version, inDim, *dist)
	fmt.Printf("%10s %12s %8s %9s %9s %9s %9s %11s\n",
		"offered", "achieved", "errors", "p50_us", "p95_us", "p99_us", "max_us", "mean_batch")

	// Dial the whole fleet once and reuse it across the sweep: connection
	// churn is not what this tool measures.
	clients := make([]*mserve.Client, *conns)
	for c := range clients {
		cl, err := mserve.Dial(*network, *addr)
		if err != nil {
			fatal(fmt.Errorf("dial conn %d/%d: %w", c, *conns, err))
		}
		cl.SetTimeout(30 * time.Second)
		defer cl.Close()
		clients[c] = cl
	}

	exit := 0
	for _, offered := range sweep {
		res := runStep(clients, offered, stepConfig{
			duration: *duration, warmup: *warmup,
			dist: *dist, batch: *batch, seed: *seed, inDim: inDim,
		})
		statsAfter, err := probe.Stats()
		if err != nil {
			fatal(err)
		}
		meanBatch := coalesceMeanDelta(statsBefore, statsAfter)
		statsBefore = statsAfter
		fmt.Printf("%10.0f %12.0f %8d %9.0f %9.0f %9.0f %9.0f %11.2f\n",
			offered, res.achievedRPS, res.errors,
			res.quantileUS(0.50), res.quantileUS(0.95), res.quantileUS(0.99),
			res.maxUS(), meanBatch)
		if err := res.err(); err != nil {
			fmt.Fprintf(os.Stderr, "kml-loadgen: %.0f rps step: %v\n", offered, err)
			exit = 1
		}
	}
	probe.Close()
	os.Exit(exit)
}

// stepConfig parameterizes one offered-load step of the sweep.
type stepConfig struct {
	duration time.Duration
	warmup   time.Duration
	dist     string
	batch    int
	seed     int64
	inDim    int
}

// stepResult aggregates one step's completed-request latencies (sorted,
// microseconds-as-Duration) and error count.
type stepResult struct {
	lats        []time.Duration
	errors      uint64
	achievedRPS float64
}

// err reports why a step failed: any request errored, warmup included, or
// none completed inside the measured window.
func (r *stepResult) err() error {
	if r.errors > 0 {
		return fmt.Errorf("%d requests failed", r.errors)
	}
	if len(r.lats) == 0 {
		return errors.New("no requests completed in the measured window")
	}
	return nil
}

func (r *stepResult) quantileUS(q float64) float64 {
	if len(r.lats) == 0 {
		return math.NaN()
	}
	return float64(r.lats[int(q*float64(len(r.lats)-1))].Nanoseconds()) / 1e3
}

func (r *stepResult) maxUS() float64 {
	if len(r.lats) == 0 {
		return math.NaN()
	}
	return float64(r.lats[len(r.lats)-1].Nanoseconds()) / 1e3
}

// runStep drives every connection on its own open-loop schedule for
// warmup+duration and returns the measured-window latencies.
func runStep(clients []*mserve.Client, offered float64, cfg stepConfig) stepResult {
	perWorker := offered / float64(len(clients))
	var wg sync.WaitGroup
	var errs atomic.Uint64
	workerLats := make([][]time.Duration, len(clients))
	start := time.Now()
	measureFrom := start.Add(cfg.warmup)
	deadline := start.Add(cfg.warmup + cfg.duration)
	for w := range clients {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := clients[w]
			rng := rand.New(rand.NewSource(cfg.seed + int64(w)))
			feats := make([]float64, cfg.batch*cfg.inDim)
			lats := make([]time.Duration, 0, int(perWorker*cfg.duration.Seconds()*2)+16)
			next := start // first arrival
			for {
				next = next.Add(interArrival(rng, perWorker, cfg.dist))
				if next.After(deadline) {
					break
				}
				if d := time.Until(next); d > 0 {
					time.Sleep(d)
				}
				for j := range feats {
					feats[j] = rng.Float64()
				}
				var err error
				if cfg.batch == 1 {
					_, _, err = cl.Infer(feats)
				} else {
					_, _, err = cl.BatchInfer(feats, cfg.batch, cfg.inDim)
				}
				if err != nil {
					errs.Add(1) // a warmup failure is still a failure
					continue
				}
				if !next.After(measureFrom) {
					continue // warmup sample
				}
				// Open-loop latency: completion minus SCHEDULED arrival.
				lats = append(lats, time.Since(next))
			}
			workerLats[w] = lats
		}(w)
	}
	wg.Wait()
	var res stepResult
	for _, l := range workerLats {
		res.lats = append(res.lats, l...)
	}
	sort.Slice(res.lats, func(i, j int) bool { return res.lats[i] < res.lats[j] })
	res.errors = errs.Load()
	res.achievedRPS = float64(len(res.lats)) / cfg.duration.Seconds()
	return res
}

// interArrival draws the next gap for one worker's schedule: exponential
// for Poisson arrivals, constant for fixed-rate.
func interArrival(rng *rand.Rand, perWorkerRPS float64, dist string) time.Duration {
	if perWorkerRPS <= 0 {
		return time.Hour
	}
	mean := float64(time.Second) / perWorkerRPS
	if dist == "fixed" {
		return time.Duration(mean)
	}
	return time.Duration(rng.ExpFloat64() * mean)
}

// coalesceMeanDelta computes the mean achieved batch size over the
// requests served BETWEEN two stats snapshots, so each sweep step
// reports its own gathering, not the run's cumulative average.
func coalesceMeanDelta(before, after mserve.Stats) float64 {
	batches := after.CoalesceBatches - before.CoalesceBatches
	rows := after.CoalesceRows - before.CoalesceRows
	if batches == 0 {
		return 0
	}
	return float64(rows) / float64(batches)
}

// parseRates turns "-rates 5000,20000" into a sweep, falling back to the
// single -rate value.
func parseRates(list string, single float64) ([]float64, error) {
	if strings.TrimSpace(list) == "" {
		if single <= 0 {
			return nil, fmt.Errorf("rate must be positive")
		}
		return []float64{single}, nil
	}
	var out []float64
	for _, f := range strings.Split(list, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseFloat(f, 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad rate %q", f)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no rates in %q", list)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
