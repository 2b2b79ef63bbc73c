// Versioned model registry: durable, content-addressed storage for the
// KML model artifacts that move between the training and serving
// environments. Registry state is persistence code — a silently failed
// write deploys a corrupt model — so this file is under the
// unchecked-error analyzer.
//
// On-disk layout under the registry root:
//
//	objects/<sha256 hex>  one serialized model per content hash
//	MANIFEST              append-only version records, one per line
//	ACTIVE                activation stack (rollback history), atomically
//	                      rewritten via rename; the last entry is active
//
//kml:checkerrors
package mserve

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dtree"
	"repro/internal/nn"
)

// ModelKind tags the serialization format of a registered model — the two
// model families KML supports (§4).
type ModelKind uint8

// Model kinds.
const (
	// KindNN is the nn package's KMLF neural-network format.
	KindNN ModelKind = 1
	// KindDTree is the dtree package's decision-tree format.
	KindDTree ModelKind = 2
)

// String returns the kind name.
func (k ModelKind) String() string {
	switch k {
	case KindNN:
		return "nn"
	case KindDTree:
		return "dtree"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Registry errors.
var (
	// ErrBadKind reports an unknown ModelKind.
	ErrBadKind = errors.New("mserve: unknown model kind")
	// ErrBadName reports a model name the manifest cannot encode.
	ErrBadName = errors.New("mserve: bad model name")
	// ErrModelTooLarge reports a model above the registry size bound.
	ErrModelTooLarge = errors.New("mserve: model too large")
	// ErrUnknownVersion reports a version number absent from the manifest.
	ErrUnknownVersion = errors.New("mserve: unknown version")
	// ErrNoActive reports an empty registry (nothing ever deployed).
	ErrNoActive = errors.New("mserve: no active version")
	// ErrCannotRollback reports a rollback with no previous activation.
	ErrCannotRollback = errors.New("mserve: no version to roll back to")
	// ErrCorruptObject reports an object failing hash, CRC or size
	// validation at load time.
	ErrCorruptObject = errors.New("mserve: corrupt model object")
	// ErrCorruptRegistry reports an unreadable manifest or active stack.
	ErrCorruptRegistry = errors.New("mserve: corrupt registry")
)

const (
	manifestName = "MANIFEST"
	activeName   = "ACTIVE"
	objectsName  = "objects"
	maxNameLen   = 128
)

// Version is one registered model version's metadata.
type Version struct {
	Number  uint64    // monotonically increasing, 1-based
	Kind    ModelKind // serialization format
	Name    string    // human-readable model name, e.g. "readahead-nn"
	Hash    string    // hex SHA-256 of the model bytes (content address)
	CRC     uint32    // IEEE CRC32 of the model bytes
	Size    int64     // model bytes
	Created int64     // unix seconds at registration
}

// Registry is a durable, versioned model store. All methods are safe for
// concurrent use; durability mutations (Put, Rollback) are
// serialized internally.
type Registry struct {
	mu        sync.Mutex
	dir       string
	versions  map[uint64]Version
	last      uint64
	stack     []uint64 // activation history; last entry is active
	deploys   uint64
	rollbacks uint64
}

// OpenRegistry opens (creating if needed) the registry rooted at dir and
// replays its manifest and activation stack.
func OpenRegistry(dir string) (*Registry, error) {
	if err := os.MkdirAll(filepath.Join(dir, objectsName), 0o755); err != nil {
		return nil, err
	}
	r := &Registry{dir: dir, versions: make(map[uint64]Version)}
	if err := r.loadManifest(); err != nil {
		return nil, err
	}
	if err := r.loadActive(); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *Registry) loadManifest() error {
	f, err := os.Open(filepath.Join(r.dir, manifestName))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		v, err := parseManifestLine(line)
		if err != nil {
			return err
		}
		r.versions[v.Number] = v
		if v.Number > r.last {
			r.last = v.Number
		}
	}
	return sc.Err()
}

func parseManifestLine(line string) (Version, error) {
	var v Version
	parts := strings.SplitN(line, "\t", 7)
	if len(parts) != 7 {
		return v, fmt.Errorf("%w: manifest line %q", ErrCorruptRegistry, line)
	}
	num, err := strconv.ParseUint(parts[0], 10, 64)
	if err != nil {
		return v, fmt.Errorf("%w: %v", ErrCorruptRegistry, err)
	}
	kind, err := strconv.ParseUint(parts[1], 10, 8)
	if err != nil {
		return v, fmt.Errorf("%w: %v", ErrCorruptRegistry, err)
	}
	crc, err := strconv.ParseUint(parts[3], 10, 32)
	if err != nil {
		return v, fmt.Errorf("%w: %v", ErrCorruptRegistry, err)
	}
	size, err := strconv.ParseInt(parts[4], 10, 64)
	if err != nil {
		return v, fmt.Errorf("%w: %v", ErrCorruptRegistry, err)
	}
	created, err := strconv.ParseInt(parts[5], 10, 64)
	if err != nil {
		return v, fmt.Errorf("%w: %v", ErrCorruptRegistry, err)
	}
	v = Version{
		Number: num, Kind: ModelKind(kind), Name: parts[6],
		Hash: parts[2], CRC: uint32(crc), Size: size, Created: created,
	}
	return v, nil
}

func (r *Registry) loadActive() error {
	data, err := os.ReadFile(filepath.Join(r.dir, activeName))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return err
	}
	for _, field := range strings.Fields(string(data)) {
		n, err := strconv.ParseUint(field, 10, 64)
		if err != nil {
			return fmt.Errorf("%w: active entry %q", ErrCorruptRegistry, field)
		}
		if _, ok := r.versions[n]; !ok {
			return fmt.Errorf("%w: active version %d not in manifest", ErrCorruptRegistry, n)
		}
		r.stack = append(r.stack, n)
	}
	return nil
}

// Put validates, stores and activates a new model version, returning its
// metadata. The model bytes must parse in the declared format — a deploy
// of a corrupt artifact fails here, before it can reach a serving path.
func (r *Registry) Put(kind ModelKind, name string, data []byte) (Version, error) {
	if err := validateName(name); err != nil {
		return Version{}, err
	}
	if int64(len(data)) > MaxPayload {
		return Version{}, ErrModelTooLarge
	}
	if _, err := parseModel(kind, data); err != nil {
		return Version{}, err
	}
	sum := sha256.Sum256(data)
	hash := hex.EncodeToString(sum[:])

	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.writeObject(hash, data); err != nil {
		return Version{}, err
	}
	v := Version{
		Number: r.last + 1, Kind: kind, Name: name,
		Hash: hash, CRC: crc32.ChecksumIEEE(data), Size: int64(len(data)),
		Created: time.Now().Unix(),
	}
	if err := r.appendManifest(v); err != nil {
		return Version{}, err
	}
	r.versions[v.Number] = v
	r.last = v.Number
	if err := r.pushActive(v.Number); err != nil {
		return Version{}, err
	}
	r.deploys++
	return v, nil
}

// Rollback reverts to the previously active version and returns it.
func (r *Registry) Rollback() (Version, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.stack) < 2 {
		return Version{}, ErrCannotRollback
	}
	prev := r.stack[:len(r.stack)-1]
	if err := r.writeActive(prev); err != nil {
		return Version{}, err
	}
	r.stack = prev
	r.rollbacks++
	return r.versions[prev[len(prev)-1]], nil
}

// Active returns the currently active version's metadata.
func (r *Registry) Active() (Version, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.stack) == 0 {
		return Version{}, false
	}
	return r.versions[r.stack[len(r.stack)-1]], true
}

// Deploys returns the number of activations (Puts) since open.
func (r *Registry) Deploys() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.deploys
}

// Rollbacks returns the number of rollbacks since open.
func (r *Registry) Rollbacks() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rollbacks
}

// Artifact loads and validates version number's bytes: size, SHA-256
// content address and CRC must all match the manifest, and the bytes must
// still parse — the registry never hands out an artifact it could not
// serve. The parse is kept: the artifact's instances all share it.
func (r *Registry) Artifact(number uint64) (*Artifact, error) {
	r.mu.Lock()
	v, ok := r.versions[number]
	r.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownVersion, number)
	}
	data, err := os.ReadFile(filepath.Join(r.dir, objectsName, v.Hash))
	if err != nil {
		return nil, err
	}
	if int64(len(data)) != v.Size {
		return nil, fmt.Errorf("%w: version %d: size %d, manifest says %d",
			ErrCorruptObject, number, len(data), v.Size)
	}
	sum := sha256.Sum256(data)
	if hex.EncodeToString(sum[:]) != v.Hash {
		return nil, fmt.Errorf("%w: version %d: content hash mismatch", ErrCorruptObject, number)
	}
	if crc32.ChecksumIEEE(data) != v.CRC {
		return nil, fmt.Errorf("%w: version %d: checksum mismatch", ErrCorruptObject, number)
	}
	a := &Artifact{Version: v, Data: data}
	m, err := a.parsed()
	if err != nil {
		return nil, fmt.Errorf("%w: version %d: %v", ErrCorruptObject, number, err)
	}
	a.InDim, a.OutDim = m.inDim, m.outDim
	return a, nil
}

// ActiveArtifact loads the active version's artifact.
func (r *Registry) ActiveArtifact() (*Artifact, error) {
	v, ok := r.Active()
	if !ok {
		return nil, ErrNoActive
	}
	return r.Artifact(v.Number)
}

// Instance loads version number and instantiates it for single-goroutine
// inference.
func (r *Registry) Instance(number uint64) (*Instance, error) {
	a, err := r.Artifact(number)
	if err != nil {
		return nil, err
	}
	return a.Instantiate()
}

func (r *Registry) writeObject(hash string, data []byte) error {
	path := filepath.Join(r.dir, objectsName, hash)
	if _, err := os.Stat(path); err == nil {
		return nil // content-addressed: identical bytes already stored
	}
	return atomicWrite(path, data)
}

func (r *Registry) appendManifest(v Version) error {
	f, err := os.OpenFile(filepath.Join(r.dir, manifestName),
		os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line := fmt.Sprintf("%d\t%d\t%s\t%d\t%d\t%d\t%s\n",
		v.Number, uint8(v.Kind), v.Hash, v.CRC, v.Size, v.Created, v.Name)
	if _, err := f.WriteString(line); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

func (r *Registry) pushActive(number uint64) error {
	next := append(append([]uint64(nil), r.stack...), number)
	if err := r.writeActive(next); err != nil {
		return err
	}
	r.stack = next
	return nil
}

func (r *Registry) writeActive(stack []uint64) error {
	// strings.Builder writes cannot fail; the discards keep the
	// checkerrors contract explicit.
	var b strings.Builder
	for i, n := range stack {
		if i > 0 {
			_ = b.WriteByte(' ')
		}
		_, _ = b.WriteString(strconv.FormatUint(n, 10))
	}
	_ = b.WriteByte('\n')
	return atomicWrite(filepath.Join(r.dir, activeName), []byte(b.String()))
}

// atomicWrite writes data to path via a temp file, fsync and rename, so a
// crash leaves either the old content or the new — never a torn file.
func atomicWrite(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

func validateName(name string) error {
	if name == "" || len(name) > maxNameLen ||
		strings.ContainsAny(name, "\t\n\r") {
		return fmt.Errorf("%w: %q", ErrBadName, name)
	}
	return nil
}

// Artifact is one immutable deployed model: validated serialized bytes,
// metadata, and the model parsed once into the form it is served in.
// Artifacts are what a Deployment publishes on the server; every
// connection and gather arena draws its Instance from the one parsed
// model, so a hot swap costs each of them a scratch allocation, not a
// re-parse. Registry.Artifact parses at load, a literal Artifact on its
// first Instantiate; do not copy an Artifact after either.
type Artifact struct {
	Version Version
	InDim   int // model input width, from parsing the artifact
	OutDim  int // model output width (class count), from parsing the artifact
	Data    []byte

	parse sync.Once
	model servable
	err   error
}

// servable is a parsed model in its shareable form: nothing reachable from
// it is written after parseModel returns. A network is held as compiled
// float32 parameters and never run itself — each Instance forks it,
// sharing the padded weight matrices (which the kernel only reads) and
// owning the scratch the kernel writes. Tree traversal is pure.
type servable struct {
	net           *nn.Float32Network
	tree          *dtree.Tree
	inDim, outDim int
}

func (a *Artifact) parsed() (*servable, error) {
	a.parse.Do(func() { a.model, a.err = parseModel(a.Version.Kind, a.Data) })
	return &a.model, a.err
}

// Instantiate returns a ready-to-serve Instance over the artifact's parsed
// model, with inference scratch of its own.
func (a *Artifact) Instantiate() (*Instance, error) {
	m, err := a.parsed()
	if err != nil {
		return nil, err
	}
	inst := &Instance{
		version: a.Version.Number, name: a.Version.Name,
		inDim: m.inDim, outDim: m.outDim, tree: m.tree,
	}
	if m.net != nil {
		inst.net = m.net.Fork()
	}
	return inst, nil
}

// Instance is a single-goroutine servable model: the artifact's shared
// parameters plus private inference scratch. Networks are served as the
// compiled float32 kernel — the float64 graph they were trained in stays
// on the training side — and Predict and PredictBatch run that one kernel,
// so a row classifies identically alone, in a batch, or gathered into a
// coalesced batch. Instance implements core.Classifier, so a registry
// version can be dropped anywhere the framework deploys models
// (readahead.Tuner, the Table-2 harness).
type Instance struct {
	version uint64
	name    string
	inDim   int
	outDim  int
	net     *nn.Float32Network
	tree    *dtree.Tree
}

var (
	_ core.Classifier      = (*Instance)(nil)
	_ core.BatchClassifier = (*Instance)(nil)
)

// Predict implements core.Classifier. It must not be called concurrently
// on one Instance; give each goroutine its own via Artifact.Instantiate.
// Both model kinds panic on a feature count other than InDim.
//
//kml:hotpath
func (m *Instance) Predict(features []float64) int {
	if m.net != nil {
		return m.net.Predict(features)
	}
	return m.tree.Predict(features)
}

// PredictBatch implements core.BatchClassifier: networks take the fused
// batched forward pass (one matrix-multiply chain for all rows instead of
// rows separate ones — where the batch-endpoint speedup comes from); tree
// traversal is already cheap and pure, so it loops. Like Predict, it must
// not be called concurrently on one Instance. After the scratch high-water
// mark is reached it allocates nothing. It panics, before writing any
// class, unless len(features) == rows*InDim and len(classes) >= rows.
//
//kml:hotpath
func (m *Instance) PredictBatch(features []float64, rows int, classes []int) {
	if rows <= 0 || len(features) != rows*m.inDim {
		panic("mserve: PredictBatch feature length mismatch")
	}
	if len(classes) < rows {
		panic("mserve: PredictBatch classes slice too short")
	}
	if m.net != nil {
		m.net.InferBatch(features, rows, classes)
		return
	}
	for r := 0; r < rows; r++ {
		classes[r] = m.tree.Predict(features[r*m.inDim : (r+1)*m.inDim])
	}
}

// Name implements core.Classifier.
func (m *Instance) Name() string { return m.name }

// Version returns the registry version this instance serves.
func (m *Instance) Version() uint64 { return m.version }

// InDim returns the model's input width; requests with a different
// feature count are rejected before Predict.
func (m *Instance) InDim() int { return m.inDim }

// OutDim returns the model's output width — the number of classes it
// predicts over, which sizes the drift monitor's class distribution.
func (m *Instance) OutDim() int { return m.outDim }

// parseModel validates serialized model bytes and returns their servable
// form; a network that loads but cannot be compiled is rejected here.
func parseModel(kind ModelKind, data []byte) (servable, error) {
	switch kind {
	case KindNN:
		net, err := nn.Load(bytes.NewReader(data))
		if err != nil {
			return servable{}, err
		}
		f32, err := nn.CompileFloat32(net)
		if err != nil {
			return servable{}, err
		}
		return servable{net: f32, inDim: f32.InDim(), outDim: f32.OutDim()}, nil
	case KindDTree:
		tree, err := dtree.Load(bytes.NewReader(data))
		if err != nil {
			return servable{}, err
		}
		return servable{tree: tree, inDim: tree.Features(), outDim: tree.Classes()}, nil
	default:
		return servable{}, fmt.Errorf("%w: %d", ErrBadKind, uint8(kind))
	}
}
