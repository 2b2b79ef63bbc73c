// Command kml-inspect examines KML deployment artifacts: the network model
// file (.kml), the normalizer (.norm), and the decision tree (.dtree) that
// cmd/kml-train produces — the files a kernel module would load in the
// paper's deploy step. It prints architecture, parameter statistics,
// memory footprints and, for networks, how often the float32 form they are
// served in agrees with the float64 graph, and verifies the checksums by
// loading.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"repro/internal/dtree"
	"repro/internal/features"
	"repro/internal/mserve"
	"repro/internal/nn"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: kml-inspect <file.kml|file.norm|file.dtree> ...\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	exit := 0
	for _, path := range flag.Args() {
		if err := inspect(path); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
			exit = 1
		}
	}
	os.Exit(exit)
}

func inspect(path string) error {
	switch {
	case strings.HasSuffix(path, ".norm"):
		return inspectNorm(path)
	case strings.HasSuffix(path, ".dtree"):
		return inspectTree(path)
	default:
		return inspectModel(path)
	}
}

func inspectModel(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	net, err := nn.Load(bytes.NewReader(data))
	if err != nil {
		return err
	}
	fmt.Printf("%s: KML neural network (checksum OK)\n", path)
	fmt.Printf("  architecture:      %s\n", net)
	fmt.Printf("  inputs -> outputs: %d -> %d\n", net.InDim(), net.OutDim())
	fmt.Printf("  parameters:        %d (%d bytes as float64)\n", net.ParamCount(), net.ParamBytes())
	fmt.Printf("  inference scratch: %d bytes\n", net.InferenceScratchBytes())
	// Weight statistics per parameter tensor.
	for i, p := range net.Params() {
		var min, max, sum float64
		for j, v := range p.Data() {
			if j == 0 || v < min {
				min = v
			}
			if j == 0 || v > max {
				max = v
			}
			sum += v
		}
		n := float64(len(p.Data()))
		fmt.Printf("  tensor %d: %dx%d  min %+.4f  max %+.4f  mean %+.4f\n",
			i, p.Rows(), p.Cols(), min, max, sum/n)
	}
	if fx, err := nn.CompileFixed(net); err == nil {
		fmt.Printf("  fixed-point (Q16.16) size: %d bytes\n", fx.ParamBytes())
	}
	if f32, err := nn.CompileFloat32(net); err == nil {
		fmt.Printf("  float32 size:              %d bytes\n", f32.ParamBytes())
	}
	agree, err := servedAgreement(net, data)
	if err != nil {
		return err
	}
	fmt.Printf("  served as float32: %d/%d agree with the float64 graph\n", agree, agreementVectors)
	return nil
}

// agreementVectors is how many seeded inputs servedAgreement classifies:
// half uniform over the ±3 range normalized features are clipped to, half
// standard normal.
const agreementVectors = 65536

// servedAgreement instantiates the model exactly as kml-served would —
// compiled to float32 — and counts the inputs on which it picks the class
// the float64 training graph picks, so what compiled serving costs this
// artifact is known before it is deployed.
func servedAgreement(net *nn.Network, data []byte) (int, error) {
	art := &mserve.Artifact{Version: mserve.Version{Kind: mserve.KindNN}, Data: data}
	inst, err := art.Instantiate()
	if err != nil {
		return 0, err
	}
	const rows = 256
	d := inst.InDim()
	rng := rand.New(rand.NewSource(1))
	block := make([]float64, rows*d)
	classes := make([]int, rows)
	var buf nn.PredictBuffer
	agree := 0
	for done := 0; done < agreementVectors; done += rows {
		for i := range block {
			if done < agreementVectors/2 {
				block[i] = rng.Float64()*6 - 3
			} else {
				block[i] = rng.NormFloat64()
			}
		}
		inst.PredictBatch(block, rows, classes)
		for r := 0; r < rows; r++ {
			if classes[r] == net.Predict(block[r*d:(r+1)*d], &buf) {
				agree++
			}
		}
	}
	return agree, nil
}

func inspectNorm(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	norm, err := features.LoadNormalizer(f)
	if err != nil {
		return err
	}
	fmt.Printf("%s: KML feature normalizer\n", path)
	names := features.Names()
	selected := map[int]bool{}
	for _, s := range features.Selected {
		selected[s] = true
	}
	for i, z := range norm.Z {
		mark := " "
		if selected[i] {
			mark = "*"
		}
		fmt.Printf("  %s %-24s mean %12.3f  stddev %12.3f\n", mark, names[i], z.Mean, z.StdDev)
	}
	fmt.Println("  (* = selected as model input)")
	return nil
}

func inspectTree(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	t, err := dtree.Load(f)
	if err != nil {
		return err
	}
	fmt.Printf("%s: KML decision tree (checksum OK)\n", path)
	fmt.Printf("  features: %d   classes: %d\n", t.Features(), t.Classes())
	fmt.Printf("  nodes:    %d   depth: %d\n", t.Nodes(), t.Depth())
	return nil
}
