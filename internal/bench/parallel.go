package bench

import (
	"repro/internal/parallel"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The parallel experiment runner. Every cell of an experiment grid — one
// (workload, readahead) point of the sweep, one (workload, device) pair of
// Table 2 — builds its own sim.Env from the by-value config and derives all
// randomness from seeds that depend only on the cell's coordinates, never
// on which worker runs it or in what order. Results land in per-cell slots
// and the summary statistics (best readahead per workload, mean gains) are
// computed after the pool drains, in canonical cell order. The rendered
// output is therefore byte-identical for every worker count; the
// determinism regression test pins workers=1 against workers=8.
//
// All cells of one grid intentionally share the experiment's base seed:
// common random numbers pair the workload streams across readahead values
// and across vanilla/tuned runs, which reduces the variance of every
// relative comparison the paper's tables report.

// RunSweepParallel executes the readahead sweep for the given workloads
// across workers goroutines (0 means GOMAXPROCS, 1 runs inline). Output is
// byte-identical whatever the worker count.
func RunSweepParallel(simCfg sim.Config, kinds []workload.Kind, raValues []int, seconds, workers int) (*SweepResult, error) {
	if raValues == nil {
		raValues = SweepRAValues()
	}
	res := &SweepResult{
		Device:    simCfg.WithDefaults().Profile.Name,
		RAValues:  raValues,
		Workloads: kinds,
	}
	grid := make([][]float64, len(kinds))
	for i := range grid {
		grid[i] = make([]float64, len(raValues))
	}
	err := parallel.For(len(kinds)*len(raValues), parallel.Workers(workers), func(i int) error {
		w, r := i/len(raValues), i%len(raValues)
		cell, err := RunFixedRA(simCfg, kinds[w], seconds, raValues[r])
		if err != nil {
			return err
		}
		grid[w][r] = cell.OpsPerSec()
		return nil
	})
	if err != nil {
		return nil, err
	}
	for w := range kinds {
		bestIdx := 0
		for i := range raValues {
			if grid[w][i] > grid[w][bestIdx] {
				bestIdx = i
			}
		}
		res.Throughput = append(res.Throughput, grid[w])
		res.Best = append(res.Best, raValues[bestIdx])
	}
	return res, nil
}

// RunTable2Parallel measures vanilla vs KML-tuned throughput for every
// Table-2 workload on both device profiles with the given model bundle,
// every (workload, device) pair an independent cell across workers
// goroutines (0 means GOMAXPROCS, 1 runs inline). Each cell decides with
// its own Instance of the bundle's artifact; output is byte-identical
// whatever the worker count.
func RunTable2Parallel(nvmeCfg, ssdCfg sim.Config, seconds int, b Bundle, workers int) (*Table2Result, error) {
	kinds := workload.AllKinds()
	cfgs := []sim.Config{nvmeCfg, ssdCfg}
	ratios := make([]float64, len(kinds)*2)
	err := parallel.For(len(ratios), parallel.Workers(workers), func(i int) error {
		w, d := i/2, i%2
		base, err := RunVanilla(cfgs[d], kinds[w], seconds)
		if err != nil {
			return err
		}
		tuned, _, err := RunKML(cfgs[d], kinds[w], seconds, b)
		if err != nil {
			return err
		}
		if base.OpsPerSec() > 0 {
			ratios[i] = tuned.OpsPerSec() / base.OpsPerSec()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &Table2Result{ModelName: b.Artifact.Version.Name}
	var sumNVMe, sumSSD float64
	for w, kind := range kinds {
		row := Table2Row{Workload: kind, NVMe: ratios[w*2], SSD: ratios[w*2+1]}
		sumNVMe += row.NVMe - 1
		sumSSD += row.SSD - 1
		res.Rows = append(res.Rows, row)
	}
	n := float64(len(res.Rows))
	res.MeanGainNVMe = sumNVMe / n * 100
	res.MeanGainSSD = sumSSD / n * 100
	return res, nil
}
