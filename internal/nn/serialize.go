// Model (de)serialization. Persistence code must never drop an error —
// a silently failed write corrupts the deployed model — so this file is
// under the unchecked-error analyzer.
//
//kml:checkerrors
package nn

import (
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/matrix"
	"repro/internal/wire"
)

// The KML model file format (§3.3: "the user can save the model to a file
// that has a KML-specific file format" and later load it in the kernel
// module). modelLayout declares it.
const (
	modelMagic   = 0x464c4d4b // "KMLF" little-endian
	modelVersion = 1
	maxLayers    = 1024
)

// Sanity bounds for deserialized layer shapes: reject corrupt headers
// before allocating buffers sized by them. 2^20 weights ≫ any KML model
// (§3: the paper's readahead network is ~1 KB of parameters).
const (
	maxLinearDim     = 1 << 16
	maxLinearWeights = 1 << 20
)

// Layer kind tags in the serialized format.
const (
	kindLinear  uint8 = 1
	kindSigmoid uint8 = 2
	kindReLU    uint8 = 3
	kindTanh    uint8 = 4
	kindSoftmax uint8 = 5
)

// activations builds the parameterless layer each remaining kind tag names.
var activations = map[uint8]func() Layer{
	kindSigmoid: NewSigmoid,
	kindReLU:    NewReLU,
	kindTanh:    NewTanh,
	kindSoftmax: func() Layer { return NewSoftmax() },
}

// ErrBadModel reports a corrupt or incompatible model file.
var ErrBadModel = errors.New("nn: bad model file")

// kindOf returns l's kind tag, or 0 if the format cannot hold it.
func kindOf(l Layer) uint8 {
	switch t := l.(type) {
	case *Linear:
		return kindLinear
	case *Softmax:
		return kindSoftmax
	case *activation:
		switch t.name {
		case "sigmoid":
			return kindSigmoid
		case "relu":
			return kindReLU
		case "tanh":
			return kindTanh
		}
	}
	return 0
}

// modelLayout is the model file, little-endian:
//
//	magic   u32   "KMLF"
//	version u16   (1)
//	layers  u16   (1..1024), then each layer (layerLayout)
//	crc32   u32   (IEEE, over everything before it)
//
// A decoded network must chain: each Linear layer takes the width the
// one before it produces.
func modelLayout(c *wire.Codec, layers *[]Layer) {
	start := c.Mark()
	magic, version := uint32(modelMagic), uint16(modelVersion)
	c.U32(&magic)
	c.U16(&version)
	c.Check(magic == modelMagic && version == modelVersion)
	wire.List16(c, layers, maxLayers, 1, layerLayout)
	if c.Check(len(*layers) > 0) {
		c.Check(chainErr(*layers) == nil)
	}
	c.CRC32(start)
}

// layerLayout is one layer: a kind tag, then for a Linear layer
// in u32, out u32, W (in·out f64) and b (out f64).
func layerLayout(c *wire.Codec, l *Layer) {
	kind := kindOf(*l)
	c.U8(&kind)
	if kind != kindLinear {
		if c.Check(activations[kind] != nil) && c.Decoding() {
			*l = activations[kind]()
		}
		return
	}
	lin, _ := (*l).(*Linear)
	var in, out uint32
	if lin != nil {
		in, out = uint32(lin.in), uint32(lin.out)
	}
	c.U32(&in)
	c.U32(&out)
	if !c.Check(in > 0 && out > 0 && in <= maxLinearDim && out <= maxLinearDim &&
		uint64(in)*uint64(out) <= maxLinearWeights) || !c.Fits(8*uint64(in+1)*uint64(out)) {
		return
	}
	if c.Decoding() {
		lin = &Linear{
			in: int(in), out: int(out),
			w:  matrix.New[float64](int(in), int(out)),
			b:  matrix.New[float64](1, int(out)),
			dw: matrix.New[float64](int(in), int(out)),
			db: matrix.New[float64](1, int(out)),
		}
		*l = lin
	}
	c.F64s(lin.w.Data())
	c.F64s(lin.b.Data())
}

// Save writes the network in the KML model file format.
func (n *Network) Save(w io.Writer) error {
	for _, l := range n.layers {
		if kindOf(l) == 0 {
			return fmt.Errorf("nn: cannot serialize layer %q", l.Name())
		}
	}
	_, err := w.Write(wire.Append(nil, n.layers, modelLayout))
	return err
}

// Load reads a network from the KML model file format. Like a reader that
// stops at the checksum, it ignores anything after it.
func Load(r io.Reader) (*Network, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadModel, err)
	}
	var layers []Layer
	var rest []byte
	c := wire.Decoder(data)
	modelLayout(&c, &layers)
	c.Tail(&rest)
	if err := c.End(ErrBadModel); err != nil {
		return nil, err
	}
	return NewNetwork(layers...), nil
}

// SaveFile writes the model to path, creating or truncating it.
func (n *Network) SaveFile(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		// Close errors matter on the write path (data may hit the disk
		// only now); don't let them vanish behind a save error.
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return n.Save(f)
}

// LoadFile reads a model saved with SaveFile — the "deploy into the kernel
// module" step of the paper's workflow.
func LoadFile(path string) (*Network, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
