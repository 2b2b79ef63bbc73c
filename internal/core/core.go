// Package core holds the model interfaces of the KML framework: what a
// deployable classifier is (Classifier), what its fused batch path is
// (BatchClassifier), and how a caller gets a copy safe for another
// goroutine (Cloneable). Both model families the paper supports, neural
// networks (nn) and decision trees (dtree), satisfy them.
//
// The rest of the paper's data path (§3.1–3.2) lives where it runs: the
// lock-free collection ring is internal/ringbuf, pushed inline by the
// readahead tuners' tracepoint hook; the ring is drained once per
// simulated operation by the tuners' loop (internal/readahead), which
// folds records into feature windows; and the asynchronous training
// thread is internal/olearn's background retrain.
package core

// Classifier is a deployable KML model: anything that maps a feature vector
// to a class. Both model families the paper supports satisfy it (a neural
// network via a small adapter owning its PredictBuffer, and a decision
// tree directly).
type Classifier interface {
	// Predict returns the class index for one feature vector.
	Predict(features []float64) int
	// Name identifies the model family, e.g. "readahead-nn".
	Name() string
}

// BatchClassifier is implemented by classifiers with a fused batched
// inference path: PredictBatch classifies rows samples (row-major
// rows×features) in one pass, writing class indices to classes[:rows].
// Implementations must produce exactly the same class per sample as rows
// individual Predict calls.
type BatchClassifier interface {
	Classifier
	PredictBatch(features []float64, rows int, classes []int)
}

// Cloneable is implemented by classifiers whose Predict mutates internal
// scratch (network forward buffers) and that can produce an independent
// copy safe for use on another goroutine. The parallel experiment harness
// clones a model per worker; stateless classifiers (decision trees) may
// return a cheap wrapper sharing the immutable model.
type Cloneable interface {
	CloneClassifier() Classifier
}
