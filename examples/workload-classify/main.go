// Workload classification: the readahead model's offline development
// workflow (§3.3/§4 of the paper) on a small simulated testbed.
//
//	go run ./examples/workload-classify
//
// It collects labeled tracepoint windows by running the four training
// workloads on the simulated NVMe device, prints the Pearson
// feature-correlation report the authors used for feature selection,
// validates with k-fold cross-validation (paper: 95.5% at k=10), and
// compares the neural network against the decision-tree model family.
package main

import (
	"fmt"
	"log"

	"repro/internal/blockdev"
	"repro/internal/features"
	"repro/internal/nn"
	"repro/internal/readahead"
	"repro/internal/sim"
)

func main() {
	// A small environment keeps this example under a minute.
	cfg := sim.Config{Profile: blockdev.NVMe(), Keys: 8000, CachePages: 640, Seed: 7}

	fmt.Println("collecting labeled windows (4 workloads × {8,64,256,1024} sectors)...")
	raw, labels, err := readahead.CollectDataset(cfg, readahead.DatasetConfig{SecondsPerRun: 8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %d one-second windows\n\n", len(raw))

	corr, err := features.CorrelationReport(raw, labels)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Pearson correlation of candidate features with the class label:")
	names := features.Names()
	selected := map[int]bool{}
	for _, s := range features.Selected {
		selected[s] = true
	}
	for i, c := range corr {
		mark := " "
		if selected[i] {
			mark = "*"
		}
		fmt.Printf("  %s %-24s %+.3f\n", mark, names[i], c)
	}
	fmt.Println("  (* = selected as model input)")
	fmt.Println()

	accs := readahead.KFoldCV(raw, labels, 5, readahead.TrainConfig{Seed: 7})
	fmt.Printf("neural network, 5-fold CV: mean accuracy %.1f%% (paper: 95.5%% at k=10)\n",
		readahead.Mean(accs)*100)

	// Train the final models on the full dataset and compare families.
	norm := features.FitNormalizer(raw)
	normed := norm.ApplyAll(raw)
	net := readahead.NewModel(7)
	readahead.TrainModel(net, normed, labels, readahead.TrainConfig{Seed: 7})
	nnAcc := readahead.Evaluate(readahead.NewNNClassifier(net), normed, labels)

	tree, err := readahead.TrainTree(normed, labels)
	if err != nil {
		log.Fatal(err)
	}
	treeAcc := readahead.Evaluate(tree, normed, labels)

	fixed, err := nn.CompileFixed(net)
	if err != nil {
		log.Fatal(err)
	}
	fixedAcc := readahead.Evaluate(fixed, normed, labels)

	fmt.Println("\ntraining-set accuracy by model family:")
	fmt.Printf("  neural network            %.1f%%\n", nnAcc*100)
	fmt.Printf("  decision tree             %.1f%% (%d nodes, depth %d)\n",
		treeAcc*100, tree.Nodes(), tree.Depth())
	fmt.Printf("  quantized NN (Q16.16)     %.1f%%\n", fixedAcc*100)
}
