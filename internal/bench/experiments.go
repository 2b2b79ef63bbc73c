package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/blockdev"
	"repro/internal/readahead"
	"repro/internal/sim"
	"repro/internal/workload"
)

// SweepRAValues are the twenty readahead settings of the paper's study
// ("20 different readahead sizes (ranging from 8 to 1024)"), in sectors.
func SweepRAValues() []int {
	return []int{8, 16, 24, 32, 48, 64, 80, 96, 128, 160, 192, 224, 256, 320, 384, 448, 512, 640, 768, 1024}
}

// SweepResult is the E1 study: throughput per (workload, readahead) on one
// device, and the best value per workload.
type SweepResult struct {
	Device    string
	RAValues  []int
	Workloads []workload.Kind
	// Throughput[w][r] is ops/sec for Workloads[w] at RAValues[r].
	Throughput [][]float64
	// Best[w] is the readahead value maximizing Workloads[w]'s throughput.
	Best []int
}

// Policy derives a tuning policy from the sweep (classes are the training
// workloads, in order).
func (s *SweepResult) Policy() readahead.Policy {
	var p readahead.Policy
	for i, kind := range s.Workloads {
		if c := kind.Class(); c >= 0 {
			p[c] = s.Best[i]
		}
	}
	return p
}

// Write renders the sweep as a table, one row per workload.
func (s *SweepResult) Write(w io.Writer) {
	fmt.Fprintf(w, "Readahead sweep on %s (ops/sec by readahead sectors)\n", s.Device)
	fmt.Fprintf(w, "%-24s", "workload")
	for _, ra := range s.RAValues {
		fmt.Fprintf(w, "%9d", ra)
	}
	fmt.Fprintf(w, "%9s\n", "best")
	for i, kind := range s.Workloads {
		fmt.Fprintf(w, "%-24s", kind)
		for _, tput := range s.Throughput[i] {
			fmt.Fprintf(w, "%9.0f", tput)
		}
		fmt.Fprintf(w, "%9d\n", s.Best[i])
	}
}

// Table2Row is one line of the paper's Table 2: the speedup of KML-tuned
// over vanilla for a workload on both devices.
type Table2Row struct {
	Workload workload.Kind
	NVMe     float64
	SSD      float64
}

// Table2Result reproduces Table 2.
type Table2Result struct {
	ModelName string
	Rows      []Table2Row
	// MeanGainNVMe / MeanGainSSD are the paper's summary percentages
	// ("average performance gain for SSD was 82.5% and for NVMe 37.3%").
	MeanGainNVMe float64
	MeanGainSSD  float64
}

// Write renders the table in the paper's layout.
func (t *Table2Result) Write(w io.Writer) {
	fmt.Fprintf(w, "Table 2 (%s): KML speedup over vanilla\n", t.ModelName)
	fmt.Fprintf(w, "%-24s%8s%8s\n", "Benchmarks", "NVMe", "SSD")
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-24s%7.2fx%7.2fx\n", r.Workload, r.NVMe, r.SSD)
	}
	fmt.Fprintf(w, "mean gain: NVMe %.1f%%  SSD %.1f%%\n", t.MeanGainNVMe, t.MeanGainSSD)
}

// TimelinePoint is one second of the Figure-2 series.
type TimelinePoint struct {
	Second     int
	VanillaOps float64
	KMLOps     float64
	RASectors  int
}

// Figure2Result is the per-second mixgraph comparison of Figure 2.
type Figure2Result struct {
	Device string
	Points []TimelinePoint
	// Speedup is the overall KML/vanilla throughput ratio for the run
	// (the paper reports ~2.09× for mixgraph).
	Speedup float64
}

// RunFigure2 reproduces the Figure-2 timeline: mixgraph with per-second
// throughput for vanilla and KML, plus the readahead value KML chose.
func RunFigure2(simCfg sim.Config, seconds int, b Bundle) (*Figure2Result, error) {
	vanilla, err := perSecondOps(simCfg, seconds, nil)
	if err != nil {
		return nil, err
	}
	kml, err := perSecondOps(simCfg, seconds, &b)
	if err != nil {
		return nil, err
	}
	res := &Figure2Result{Device: simCfg.WithDefaults().Profile.Name}
	var vTotal, kTotal float64
	for s := 0; s < seconds; s++ {
		p := TimelinePoint{Second: s, VanillaOps: vanilla.opsPerSec[s], KMLOps: kml.opsPerSec[s], RASectors: kml.ra[s]}
		vTotal += p.VanillaOps
		kTotal += p.KMLOps
		res.Points = append(res.Points, p)
	}
	if vTotal > 0 {
		res.Speedup = kTotal / vTotal
	}
	return res, nil
}

type timeline struct {
	opsPerSec []float64
	ra        []int
}

func perSecondOps(simCfg sim.Config, seconds int, b *Bundle) (*timeline, error) {
	env, err := sim.NewEnv(simCfg)
	if err != nil {
		return nil, err
	}
	var tuner *readahead.Tuner
	if b != nil {
		if tuner, err = b.newTuner(env.Dev); err != nil {
			return nil, err
		}
		env.Tracer.Register(tuner.Hook())
	}
	runner := env.NewRunner(workload.MixGraph)
	tl := &timeline{}
	start := env.Clk.Now()
	lastOps := uint64(0)
	for s := 0; s < seconds; s++ {
		deadline := start + time.Duration(s+1)*time.Second
		for env.Clk.Now() < deadline {
			if err := runner.Step(); err != nil {
				return nil, err
			}
			if tuner != nil {
				tuner.MaybeTick(env.Clk.Now())
			}
		}
		tl.opsPerSec = append(tl.opsPerSec, float64(runner.Ops()-lastOps))
		lastOps = runner.Ops()
		tl.ra = append(tl.ra, env.Dev.ReadaheadSectors())
	}
	return tl, nil
}

// Write renders the timeline as aligned columns (CSV-friendly with -csv in
// cmd/kml-figure2) followed by an ASCII rendering of the two series — the
// closest a terminal gets to the paper's Figure 2.
func (f *Figure2Result) Write(w io.Writer) {
	fmt.Fprintf(w, "Figure 2: mixgraph timeline on %s (overall speedup %.2fx)\n", f.Device, f.Speedup)
	fmt.Fprintf(w, "%6s%14s%14s%12s\n", "sec", "vanilla_ops", "kml_ops", "kml_ra")
	for _, p := range f.Points {
		fmt.Fprintf(w, "%6d%14.0f%14.0f%12d\n", p.Second, p.VanillaOps, p.KMLOps, p.RASectors)
	}
	f.writePlot(w)
}

// writePlot draws both throughput series on a shared axis, one column per
// second: K marks the KML series, v the vanilla series, * a collision.
func (f *Figure2Result) writePlot(w io.Writer) {
	if len(f.Points) == 0 {
		return
	}
	const rows = 12
	maxOps := 0.0
	for _, p := range f.Points {
		if p.KMLOps > maxOps {
			maxOps = p.KMLOps
		}
		if p.VanillaOps > maxOps {
			maxOps = p.VanillaOps
		}
	}
	if maxOps == 0 {
		return
	}
	level := func(v float64) int {
		l := int(v / maxOps * float64(rows-1))
		if l < 0 {
			l = 0
		}
		if l > rows-1 {
			l = rows - 1
		}
		return l
	}
	fmt.Fprintf(w, "\nops/sec (K = KML, v = vanilla, * = both)%*s\n", 10, "")
	for r := rows - 1; r >= 0; r-- {
		fmt.Fprintf(w, "%9.0f |", maxOps*float64(r)/float64(rows-1))
		for _, p := range f.Points {
			k, v := level(p.KMLOps) == r, level(p.VanillaOps) == r
			switch {
			case k && v:
				fmt.Fprint(w, "*")
			case k:
				fmt.Fprint(w, "K")
			case v:
				fmt.Fprint(w, "v")
			default:
				fmt.Fprint(w, " ")
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%9s +%s\n", "", strings.Repeat("-", len(f.Points)))
	fmt.Fprintf(w, "%9s  seconds -> (readahead: ", "")
	prev := -1
	for _, p := range f.Points {
		if p.RASectors != prev {
			if prev != -1 {
				fmt.Fprint(w, ",")
			}
			fmt.Fprintf(w, "t%d:%d", p.Second, p.RASectors)
			prev = p.RASectors
		}
	}
	fmt.Fprintln(w, " sectors)")
}

// DefaultNVMeConfig returns the evaluation environment for the NVMe device.
func DefaultNVMeConfig(seed int64) sim.Config {
	return sim.Config{Profile: blockdev.NVMe(), Seed: seed}
}

// DefaultSSDConfig returns the evaluation environment for the SATA SSD.
func DefaultSSDConfig(seed int64) sim.Config {
	return sim.Config{Profile: blockdev.SATASSD(), Seed: seed}
}

// QuickConfig shrinks an environment for fast tests: an 8× smaller key
// space and cache with the same dataset-to-cache ratio.
func QuickConfig(base sim.Config) sim.Config {
	base = base.WithDefaults()
	base.Keys /= 8
	base.CachePages /= 8
	return base
}

// Median returns the median of xs (0 when empty).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
