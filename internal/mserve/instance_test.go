package mserve

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"os"
	"sync"
	"testing"

	"repro/internal/nn"
)

const committedModel = "../../testdata/models/readahead.kml"

// committedArtifact registers the checked-in readahead network in a fresh
// registry and returns its artifact and the float64 graph it was saved
// from.
func committedArtifact(t *testing.T) (*Artifact, *nn.Network) {
	t.Helper()
	data, err := os.ReadFile(committedModel)
	if err != nil {
		t.Fatal(err)
	}
	net, err := nn.Load(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return putArtifact(t, KindNN, data), net
}

func instantiate(t *testing.T, a *Artifact) *Instance {
	t.Helper()
	inst, err := a.Instantiate()
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// uniformPool draws n model inputs the way the model sees them in
// service: Z-scores clipped to ±3.
func uniformPool(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]float64, n)
	for i := range pool {
		pool[i] = rng.Float64()*6 - 3
	}
	return pool
}

// TestServedPrecisionAgreesWithFloat64 is the agreement gate for serving
// the compiled kernel: on the committed model, the float32 instance must
// pick the float64 training graph's class on every one of 204 800 seeded
// vectors. Freshly trained nets keep the generic ≥ 99 % floor
// (nn.TestCompileFloat32MatchesFloat64); this pins that the artifact we
// actually ship loses nothing.
func TestServedPrecisionAgreesWithFloat64(t *testing.T) {
	art, net := committedArtifact(t)
	inst := instantiate(t, art)
	d := inst.InDim()
	const rows, blocks = 256, 400
	uniform := uniformPool(11, rows*blocks*d)
	rng := rand.New(rand.NewSource(12))
	normal := make([]float64, rows*blocks*d)
	for i := range normal {
		normal[i] = rng.NormFloat64()
	}
	var buf nn.PredictBuffer
	classes := make([]int, rows)
	for name, pool := range map[string][]float64{"uniform[-3,3]": uniform, "normal": normal} {
		disagree := 0
		for b := 0; b < blocks; b++ {
			block := pool[b*rows*d : (b+1)*rows*d]
			inst.PredictBatch(block, rows, classes)
			for r := 0; r < rows; r++ {
				if classes[r] != net.Predict(block[r*d:(r+1)*d], &buf) {
					disagree++
				}
			}
		}
		if disagree != 0 {
			t.Errorf("%s: served float32 disagrees with float64 on %d of %d vectors", name, disagree, rows*blocks)
		}
	}
}

// servedClassesFNV is FNV-64a over the 4 096 classes the committed model
// serves for uniformPool(1, …), one little-endian uint16 per class. The
// asm kernel (amd64) and the portable one (-tags purego, every other
// architecture) must both produce it: hosts without the asm kernel serve
// with the portable one, and a row must not classify differently by host.
const servedClassesFNV = 0x343d526de6699ffe

func TestServedClassesMatchAcrossBuilds(t *testing.T) {
	art, _ := committedArtifact(t)
	inst := instantiate(t, art)
	d := inst.InDim()
	const rows, blocks = 256, 16
	pool := uniformPool(1, rows*blocks*d)
	classes := make([]int, rows)
	h := fnv.New64a()
	var le [2]byte
	for b := 0; b < blocks; b++ {
		inst.PredictBatch(pool[b*rows*d:(b+1)*rows*d], rows, classes)
		for _, c := range classes {
			binary.LittleEndian.PutUint16(le[:], uint16(c))
			h.Write(le[:])
		}
	}
	if got := h.Sum64(); got != servedClassesFNV {
		t.Fatalf("served classes hash %#x, want %#x", got, uint64(servedClassesFNV))
	}
}

// TestInstanceBatchRowsEqualPredict pins the one-kernel contract for both
// model kinds: row r of PredictBatch is Predict(row r) at every batch
// size, including the step past the scratch high-water mark (256 → 257).
func TestInstanceBatchRowsEqualPredict(t *testing.T) {
	art, _ := committedArtifact(t)
	for _, a := range []*Artifact{art, putArtifact(t, KindDTree, treeBytes(t, art.InDim))} {
		batch, single := instantiate(t, a), instantiate(t, a)
		d := batch.InDim()
		seen := map[int]bool{}
		for i, rows := range []int{1, 7, 64, 256, 257} {
			feats := uniformPool(int64(20+i), rows*d)
			classes := make([]int, rows)
			batch.PredictBatch(feats, rows, classes)
			for r := 0; r < rows; r++ {
				row := feats[r*d : (r+1)*d]
				if got := single.Predict(row); got != classes[r] {
					t.Fatalf("%s rows=%d row %d: batch class %d, single class %d", a.Version.Kind, rows, r, classes[r], got)
				}
				if got := batch.Predict(row); got != classes[r] {
					t.Fatalf("%s rows=%d row %d: batch class %d, same-instance single class %d", a.Version.Kind, rows, r, classes[r], got)
				}
				seen[classes[r]] = true
			}
		}
		if len(seen) < 2 {
			t.Errorf("%s: every row classified alike; the comparison is vacuous", a.Version.Kind)
		}
	}
}

// treeBytes serializes a tree that splits on its first feature, so its
// predictions depend on the input.
func treeBytes(t *testing.T, inDim int) []byte {
	t.Helper()
	x := make([][]float64, 40)
	y := make([]int, len(x))
	for i := range x {
		x[i] = make([]float64, inDim)
		x[i][0] = float64(i%4) - 1.5
		y[i] = i % 4
	}
	return trainTreeBytes(t, x, y)
}

// TestInstanceValidatesBeforeWriting pins the up-front shape checks for
// both model kinds: a bad call panics and leaves classes untouched (the
// tree path used to index-panic mid-batch after writing some classes).
func TestInstanceValidatesBeforeWriting(t *testing.T) {
	for _, m := range []struct {
		kind ModelKind
		data []byte
	}{{KindNN, nnModelBytes(t, 5, 4)}, {KindDTree, treeBytes(t, 4)}} {
		inst := instantiate(t, putArtifact(t, m.kind, m.data))
		feats := uniformPool(30, 3*4)
		for name, call := range map[string]func(classes []int){
			"features short of rows*InDim": func(c []int) { inst.PredictBatch(feats[:11], 3, c) },
			"features past rows*InDim":     func(c []int) { inst.PredictBatch(feats, 2, c) },
			"classes shorter than rows":    func(c []int) { inst.PredictBatch(feats, 3, c[:2]) },
			"no rows":                      func(c []int) { inst.PredictBatch(nil, 0, c) },
			"single row of the wrong width": func(c []int) {
				c[0] = inst.Predict(feats[:3])
			},
		} {
			classes := []int{-1, -1, -1}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s, %s: no panic", m.kind, name)
					}
				}()
				call(classes)
			}()
			for i, c := range classes {
				if c != -1 {
					t.Errorf("%s, %s: classes[%d] = %d written before the panic", m.kind, name, i, c)
				}
			}
		}
	}
}

// TestInstantiateSharesWeights pins the once-per-artifact parse: after
// Registry.Artifact returns, Instantiate never looks at the serialized
// bytes again (they are scribbled over here), every instance predicts
// alike from scratch of its own, and what an Instantiate allocates does
// not grow with the parameter count. nn.TestForkSharesParameters pins the
// pointer-equality underneath.
func TestInstantiateSharesWeights(t *testing.T) {
	art, _ := committedArtifact(t)
	first := instantiate(t, art)
	for i := range art.Data {
		art.Data[i] = 0xff
	}
	second := instantiate(t, art)
	if first.net == second.net || first.net == art.model.net {
		t.Fatal("instances must own their inference scratch")
	}
	d := art.InDim
	feats := uniformPool(40, 64*d)
	a, b := make([]int, 64), make([]int, 64)
	first.PredictBatch(feats, 64, a)
	second.PredictBatch(feats, 64, b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d: first instance %d, second %d", i, a[i], b[i])
		}
	}

	// Same depth, 60× the parameters: same allocation count.
	allocs := func(in int) float64 {
		art := putArtifact(t, KindNN, nnModelBytes(t, 6, in))
		return testing.AllocsPerRun(20, func() {
			if _, err := art.Instantiate(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(4), allocs(512); small != large {
		t.Errorf("Instantiate allocates %.0f times for a 4-input net, %.0f for a 512-input one", small, large)
	}
}

// TestLiteralArtifactParsesOnce covers an Artifact built outside the
// registry: it parses its bytes on first use, concurrently safe, and a
// corrupt one keeps reporting its error.
func TestLiteralArtifactParsesOnce(t *testing.T) {
	a := &Artifact{Version: Version{Number: 7, Kind: KindNN, Name: "lit"}, Data: nnModelBytes(t, 8, 4)}
	var wg sync.WaitGroup
	insts := make([]*Instance, 4)
	for i := range insts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			inst, err := a.Instantiate()
			if err != nil {
				t.Error(err)
				return
			}
			insts[i] = inst
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	in := []float64{0.1, -0.2, 0.3, -0.4}
	for _, inst := range insts[1:] {
		if inst.Predict(in) != insts[0].Predict(in) || inst.InDim() != 4 || inst.Version() != 7 {
			t.Fatal("instances of one literal artifact differ")
		}
	}
	bad := &Artifact{Version: Version{Kind: KindNN}, Data: []byte("not a model")}
	for i := 0; i < 2; i++ {
		if _, err := bad.Instantiate(); err == nil {
			t.Fatal("corrupt literal artifact instantiated")
		}
	}
}

// TestForkedInstancesUnderHotSwap is the sharing contract under -race:
// eight goroutines, each inferring on instances of its own drawn from
// whichever artifact is deployed, across a Deploy. Every block must
// classify exactly as a serial pass over that model did — shared
// parameters are only read, scratch is never shared.
func TestForkedInstancesUnderHotSwap(t *testing.T) {
	s, _ := startServer(t, Config{})
	const rows, blocks, d = 64, 8, 4
	pool := uniformPool(52, rows*blocks*d)
	models := [][]byte{nnModelBytes(t, 50, d), nnModelBytes(t, 51, d)}
	// serial[v] is what version v must answer; versions are 1 and 2.
	serial := make([][]int, 3)
	for i, data := range models {
		inst := instantiate(t, &Artifact{Version: Version{Kind: KindNN}, Data: data})
		want := make([]int, rows*blocks)
		for b := 0; b < blocks; b++ {
			inst.PredictBatch(pool[b*rows*d:(b+1)*rows*d], rows, want[b*rows:(b+1)*rows])
		}
		serial[i+1] = want
	}
	if _, err := s.Deploy(KindNN, "m", models[0]); err != nil {
		t.Fatal(err)
	}

	const workers, passesAfterSwap = 8, 32
	var onV1, done sync.WaitGroup
	onV1.Add(workers)
	for w := 0; w < workers; w++ {
		done.Add(1)
		go func(w int) {
			defer done.Done()
			var inst *Instance
			got := make([]int, rows)
			for pass, onV2 := 0, 0; onV2 < passesAfterSwap; pass++ {
				snap := s.Deployment().Load()
				if inst == nil || inst.Version() != snap.Version {
					var err error
					if inst, err = snap.Model.Instantiate(); err != nil {
						t.Error(err)
						break
					}
				}
				b := (pass + w) % blocks
				inst.PredictBatch(pool[b*rows*d:(b+1)*rows*d], rows, got)
				want := serial[inst.Version()][b*rows : (b+1)*rows]
				for r := range got {
					if got[r] != want[r] {
						t.Errorf("worker %d v%d block %d row %d: class %d, serial pass gave %d",
							w, inst.Version(), b, r, got[r], want[r])
					}
				}
				if pass == 0 {
					onV1.Done()
				}
				if inst.Version() == 2 {
					onV2++
				}
			}
		}(w)
	}
	onV1.Wait() // every worker holds a v1 instance and is mid-loop
	if _, err := s.Deploy(KindNN, "m", models[1]); err != nil {
		t.Error(err)
	}
	done.Wait()
}
