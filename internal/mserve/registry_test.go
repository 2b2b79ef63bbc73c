package mserve

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dtree"
	"repro/internal/nn"
)

// nnModelBytes serializes a small random network in the KMLF format.
func nnModelBytes(t testing.TB, seed int64, inDim int) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net := nn.NewNetwork(
		nn.NewLinear(inDim, 8, rng),
		nn.NewSigmoid(),
		nn.NewLinear(8, 4, rng),
	)
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatalf("save nn: %v", err)
	}
	return buf.Bytes()
}

// constTreeBytes serializes a decision tree that predicts class for any
// input: training on a single-class dataset yields one leaf.
func constTreeBytes(t *testing.T, class, inDim int) []byte {
	t.Helper()
	x := [][]float64{
		make([]float64, inDim),
		make([]float64, inDim),
	}
	for i := range x[1] {
		x[1][i] = 1
	}
	return trainTreeBytes(t, x, []int{class, class})
}

// trainTreeBytes trains a 4-class tree on (x, y) and serializes it.
func trainTreeBytes(t *testing.T, x [][]float64, y []int) []byte {
	t.Helper()
	tree, err := dtree.Train(x, y, 4, dtree.Options{})
	if err != nil {
		t.Fatalf("train tree: %v", err)
	}
	var buf bytes.Buffer
	if err := tree.Save(&buf); err != nil {
		t.Fatalf("save tree: %v", err)
	}
	return buf.Bytes()
}

// putArtifact registers data in a fresh registry and loads it back.
func putArtifact(t *testing.T, kind ModelKind, data []byte) *Artifact {
	t.Helper()
	r, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatalf("open registry: %v", err)
	}
	v, err := r.Put(kind, "m", data)
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	art, err := r.Artifact(v.Number)
	if err != nil {
		t.Fatalf("artifact: %v", err)
	}
	return art
}

func TestRegistryPutActivateRollback(t *testing.T) {
	dir := t.TempDir()
	r, err := OpenRegistry(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, ok := r.Active(); ok {
		t.Fatal("fresh registry has an active version")
	}
	if _, err := r.ActiveArtifact(); !errors.Is(err, ErrNoActive) {
		t.Fatalf("ActiveArtifact on empty registry: %v", err)
	}

	m1 := nnModelBytes(t, 1, 4)
	v1, err := r.Put(KindNN, "readahead-nn", m1)
	if err != nil {
		t.Fatalf("put v1: %v", err)
	}
	if v1.Number != 1 || v1.Kind != KindNN || v1.Size != int64(len(m1)) {
		t.Fatalf("v1 metadata: %+v", v1)
	}
	m2 := constTreeBytes(t, 2, 4)
	v2, err := r.Put(KindDTree, "readahead-dtree", m2)
	if err != nil {
		t.Fatalf("put v2: %v", err)
	}
	if v2.Number != 2 {
		t.Fatalf("v2 number = %d", v2.Number)
	}
	if a, _ := r.Active(); a.Number != 2 {
		t.Fatalf("active = %d, want 2", a.Number)
	}

	inst, err := r.Instance(2)
	if err != nil {
		t.Fatalf("instance v2: %v", err)
	}
	if got := inst.Predict([]float64{0.3, 0.3, 0.3, 0.3}); got != 2 {
		t.Fatalf("const tree predicts %d, want 2", got)
	}
	if inst.InDim() != 4 {
		t.Fatalf("instance indim=%d, want 4", inst.InDim())
	}

	back, err := r.Rollback()
	if err != nil {
		t.Fatalf("rollback: %v", err)
	}
	if back.Number != 1 {
		t.Fatalf("rolled back to %d, want 1", back.Number)
	}
	if _, err := r.Rollback(); !errors.Is(err, ErrCannotRollback) {
		t.Fatalf("second rollback: %v", err)
	}
	if _, err := r.Instance(99); !errors.Is(err, ErrUnknownVersion) {
		t.Fatalf("instance of an unknown version: %v", err)
	}
	if r.Deploys() != 2 || r.Rollbacks() != 1 {
		t.Fatalf("deploys=%d rollbacks=%d", r.Deploys(), r.Rollbacks())
	}
}

func TestRegistryReopenPersists(t *testing.T) {
	dir := t.TempDir()
	r, err := OpenRegistry(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	m1 := nnModelBytes(t, 7, 4)
	if _, err := r.Put(KindNN, "a", m1); err != nil {
		t.Fatalf("put: %v", err)
	}
	if _, err := r.Put(KindDTree, "b", constTreeBytes(t, 1, 4)); err != nil {
		t.Fatalf("put: %v", err)
	}
	if _, err := r.Rollback(); err != nil {
		t.Fatalf("rollback: %v", err)
	}

	r2, err := OpenRegistry(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	a, ok := r2.Active()
	if !ok || a.Number != 1 || a.Name != "a" {
		t.Fatalf("reopened active: %+v ok=%v", a, ok)
	}
	art, err := r2.ActiveArtifact()
	if err != nil {
		t.Fatalf("reopened artifact: %v", err)
	}
	if !bytes.Equal(art.Data, m1) {
		t.Fatal("artifact bytes differ after reopen")
	}
	// Rollback history survives: v2 was active before the rollback, so
	// there is nothing older than v1 to roll back to.
	if _, err := r2.Rollback(); !errors.Is(err, ErrCannotRollback) {
		t.Fatalf("rollback after reopen: %v", err)
	}
}

func TestRegistryRejectsCorruptObject(t *testing.T) {
	dir := t.TempDir()
	r, err := OpenRegistry(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	v, err := r.Put(KindNN, "m", nnModelBytes(t, 3, 4))
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	path := filepath.Join(dir, objectsName, v.Hash)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read object: %v", err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("corrupt object: %v", err)
	}
	if _, err := r.Artifact(v.Number); !errors.Is(err, ErrCorruptObject) {
		t.Fatalf("artifact on corrupt object: %v", err)
	}
}

func TestRegistryRejectsBadInput(t *testing.T) {
	r, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := r.Put(KindNN, "garbage", []byte("not a model")); err == nil {
		t.Fatal("Put accepted garbage bytes")
	}
	if _, err := r.Put(ModelKind(9), "m", nnModelBytes(t, 1, 4)); !errors.Is(err, ErrBadKind) {
		t.Fatalf("bad kind: %v", err)
	}
	if _, err := r.Put(KindNN, "tab\tname", nnModelBytes(t, 1, 4)); !errors.Is(err, ErrBadName) {
		t.Fatalf("bad name: %v", err)
	}
	// A tree deployed as KindNN must fail validation, not serve garbage.
	if _, err := r.Put(KindNN, "m", constTreeBytes(t, 0, 4)); err == nil {
		t.Fatal("Put accepted a dtree artifact declared as nn")
	}
}
