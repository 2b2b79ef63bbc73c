package features

// The normalizer codec as it was before it ran on internal/wire, kept
// verbatim (renamed ref*) as the oracle for TestNormalizerMatchesReference.
// It is the reference implementation: do not "fix" it.

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

func refSave(n Normalizer, w io.Writer) error {
	buf := make([]byte, 4+NumCandidates*16)
	binary.LittleEndian.PutUint32(buf, normalizerMagic)
	for i, z := range n.Z {
		binary.LittleEndian.PutUint64(buf[4+i*16:], math.Float64bits(z.Mean))
		binary.LittleEndian.PutUint64(buf[12+i*16:], math.Float64bits(z.StdDev))
	}
	_, err := w.Write(buf)
	return err
}

func refLoadNormalizer(r io.Reader) (Normalizer, error) {
	var n Normalizer
	buf := make([]byte, 4+NumCandidates*16)
	if _, err := io.ReadFull(r, buf); err != nil {
		return n, fmt.Errorf("%w: %v", ErrBadNormalizer, err)
	}
	if binary.LittleEndian.Uint32(buf) != normalizerMagic {
		return n, fmt.Errorf("%w: magic", ErrBadNormalizer)
	}
	for i := range n.Z {
		n.Z[i].Mean = math.Float64frombits(binary.LittleEndian.Uint64(buf[4+i*16:]))
		n.Z[i].StdDev = math.Float64frombits(binary.LittleEndian.Uint64(buf[12+i*16:]))
	}
	return n, nil
}
