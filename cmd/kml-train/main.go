// Command kml-train executes the paper's model-development workflow (§3.3,
// §4): collect labeled feature windows by running the four training
// workloads on the NVMe model, report the Pearson feature-correlation
// analysis, validate with k-fold cross-validation (the paper reports 95.5%
// mean accuracy at k=10), train the final network and decision tree on the
// full dataset, and save both — plus the fitted normalizer — in the KML
// deployment formats.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/bench"
	"repro/internal/features"
	"repro/internal/readahead"
)

func main() {
	quick := flag.Bool("quick", false, "8x smaller environment for a fast pass")
	seconds := flag.Int("seconds", 20, "virtual seconds per (workload, readahead) run")
	kfold := flag.Int("kfold", 10, "cross-validation folds (0 to skip)")
	out := flag.String("out", ".", "directory for model artifacts")
	seed := flag.Int64("seed", 1, "seed")
	par := flag.Int("parallel", 0, "worker goroutines for cross-validation folds (0 = GOMAXPROCS, 1 = serial); accuracies are identical for any value")
	flag.Parse()

	simCfg := bench.DefaultNVMeConfig(*seed)
	if *quick {
		simCfg = bench.QuickConfig(simCfg)
	}
	dcfg := readahead.DatasetConfig{SecondsPerRun: *seconds}
	fmt.Println("collecting training data (4 workloads x 4 readahead values on NVMe)...")
	raw, labels, err := readahead.CollectDataset(simCfg, dcfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("dataset: %d windows\n", len(raw))

	corr, err := features.CorrelationReport(raw, labels)
	if err != nil {
		fatal(err)
	}
	fmt.Println("Pearson correlation with class label:")
	names := features.Names()
	for i, c := range corr {
		fmt.Printf("  %-22s %+.3f\n", names[i], c)
	}

	tcfg := readahead.TrainConfig{Seed: *seed}
	if *kfold > 1 {
		accs := readahead.KFoldCVParallel(raw, labels, *kfold, tcfg, *par)
		fmt.Printf("%d-fold cross-validation accuracy: mean %.1f%% (folds:", *kfold, readahead.Mean(accs)*100)
		for _, a := range accs {
			fmt.Printf(" %.0f%%", a*100)
		}
		fmt.Println(")")
	}

	norm := features.FitNormalizer(raw)
	normed := norm.ApplyAll(raw)
	net := readahead.NewModel(*seed)
	losses := readahead.TrainModel(net, normed, labels, tcfg)
	fmt.Printf("final model training: %d epochs, loss %.4f -> %.4f\n",
		len(losses), losses[0], losses[len(losses)-1])
	fmt.Printf("train accuracy (NN): %.1f%%\n",
		readahead.Evaluate(readahead.NewNNClassifier(net), normed, labels)*100)

	tree, err := readahead.TrainTree(normed, labels)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("train accuracy (decision tree): %.1f%%\n",
		readahead.Evaluate(tree, normed, labels)*100)

	modelPath := filepath.Join(*out, "readahead.kml")
	normPath := filepath.Join(*out, "readahead.norm")
	treePath := filepath.Join(*out, "readahead.dtree")
	for _, a := range []struct {
		path string
		save func(io.Writer) error
	}{{modelPath, net.Save}, {normPath, norm.Save}, {treePath, tree.Save}} {
		if err := saveFile(a.path, a.save); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("saved %s, %s, %s\n", modelPath, normPath, treePath)
}

// saveFile writes one artifact to path. A failed Close is an error too:
// the data may reach the disk only then.
func saveFile(path string, save func(io.Writer) error) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return save(f)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
