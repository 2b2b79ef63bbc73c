package nn

// The model-file codec as it was before it ran on internal/wire, kept
// verbatim (renamed ref*) as the oracle for TestModelFileMatchesReference.
// It is the reference implementation: do not "fix" it.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/matrix"
)

const refModelMagic = "KMLF"

type refCRCWriter struct {
	w   io.Writer
	crc uint32
}

func (c *refCRCWriter) Write(p []byte) (int, error) {
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p)
	return c.w.Write(p)
}

type refCRCReader struct {
	r   io.Reader
	crc uint32
}

func (c *refCRCReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	return n, err
}

func refSave(n *Network, w io.Writer) error {
	cw := &refCRCWriter{w: w}
	if _, err := cw.Write([]byte(refModelMagic)); err != nil {
		return err
	}
	if err := binary.Write(cw, binary.LittleEndian, uint16(modelVersion)); err != nil {
		return err
	}
	if err := binary.Write(cw, binary.LittleEndian, uint16(len(n.layers))); err != nil {
		return err
	}
	for _, l := range n.layers {
		switch t := l.(type) {
		case *Linear:
			if err := binary.Write(cw, binary.LittleEndian, kindLinear); err != nil {
				return err
			}
			if err := binary.Write(cw, binary.LittleEndian, uint32(t.in)); err != nil {
				return err
			}
			if err := binary.Write(cw, binary.LittleEndian, uint32(t.out)); err != nil {
				return err
			}
			if err := refWriteFloats(cw, t.w.Data()); err != nil {
				return err
			}
			if err := refWriteFloats(cw, t.b.Data()); err != nil {
				return err
			}
		case *Softmax:
			if err := binary.Write(cw, binary.LittleEndian, kindSoftmax); err != nil {
				return err
			}
		case *activation:
			var kind uint8
			switch t.name {
			case "sigmoid":
				kind = kindSigmoid
			case "relu":
				kind = kindReLU
			case "tanh":
				kind = kindTanh
			default:
				return fmt.Errorf("nn: cannot serialize activation %q", t.name)
			}
			if err := binary.Write(cw, binary.LittleEndian, kind); err != nil {
				return err
			}
		default:
			return fmt.Errorf("nn: cannot serialize layer %q", l.Name())
		}
	}
	return binary.Write(w, binary.LittleEndian, cw.crc)
}

func refLoad(r io.Reader) (*Network, error) {
	cr := &refCRCReader{r: r}
	magic := make([]byte, 4)
	if _, err := io.ReadFull(cr, magic); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadModel, err)
	}
	if string(magic) != refModelMagic {
		return nil, fmt.Errorf("%w: magic %q", ErrBadModel, magic)
	}
	var version, count uint16
	if err := binary.Read(cr, binary.LittleEndian, &version); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadModel, err)
	}
	if version != modelVersion {
		return nil, fmt.Errorf("%w: version %d", ErrBadModel, version)
	}
	if err := binary.Read(cr, binary.LittleEndian, &count); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadModel, err)
	}
	if count == 0 || count > 1024 {
		return nil, fmt.Errorf("%w: layer count %d", ErrBadModel, count)
	}
	layers := make([]Layer, 0, count)
	for i := 0; i < int(count); i++ {
		var kind uint8
		if err := binary.Read(cr, binary.LittleEndian, &kind); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadModel, err)
		}
		switch kind {
		case kindLinear:
			var in, out uint32
			if err := binary.Read(cr, binary.LittleEndian, &in); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadModel, err)
			}
			if err := binary.Read(cr, binary.LittleEndian, &out); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadModel, err)
			}
			if in == 0 || out == 0 || in > maxLinearDim || out > maxLinearDim ||
				uint64(in)*uint64(out) > maxLinearWeights {
				return nil, fmt.Errorf("%w: linear dims %dx%d", ErrBadModel, in, out)
			}
			l := &Linear{
				in: int(in), out: int(out),
				w:  matrix.New[float64](int(in), int(out)),
				b:  matrix.New[float64](1, int(out)),
				dw: matrix.New[float64](int(in), int(out)),
				db: matrix.New[float64](1, int(out)),
			}
			if err := refReadFloats(cr, l.w.Data()); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadModel, err)
			}
			if err := refReadFloats(cr, l.b.Data()); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadModel, err)
			}
			layers = append(layers, l)
		case kindSigmoid:
			layers = append(layers, NewSigmoid())
		case kindReLU:
			layers = append(layers, NewReLU())
		case kindTanh:
			layers = append(layers, NewTanh())
		case kindSoftmax:
			layers = append(layers, NewSoftmax())
		default:
			return nil, fmt.Errorf("%w: layer kind %d", ErrBadModel, kind)
		}
	}
	want := cr.crc
	var got uint32
	if err := binary.Read(r, binary.LittleEndian, &got); err != nil {
		return nil, fmt.Errorf("%w: missing checksum: %v", ErrBadModel, err)
	}
	if got != want {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadModel)
	}
	return NewNetwork(layers...), nil
}

func refWriteFloats(w io.Writer, fs []float64) error {
	buf := make([]byte, 8*len(fs))
	for i, f := range fs {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(f))
	}
	_, err := w.Write(buf)
	return err
}

func refReadFloats(r io.Reader, fs []float64) error {
	buf := make([]byte, 8*len(fs))
	if _, err := io.ReadFull(r, buf); err != nil {
		return err
	}
	for i := range fs {
		fs[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
	}
	return nil
}
