package dtree

// The tree-file codec as it was before it ran on internal/wire, kept
// verbatim (renamed ref*) as the oracle for TestTreeFileMatchesReference.
// It is the reference implementation: do not "fix" it.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

const refTreeMagic = "KMLT"

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

func refSave(t *Tree, w io.Writer) error {
	cw := &refCRCWriter{w: w}
	if _, err := cw.Write([]byte(refTreeMagic)); err != nil {
		return err
	}
	hdr := []uint32{treeVersion, uint32(t.features), uint32(t.classes), uint32(t.nodes)}
	for _, v := range hdr {
		if err := binary.Write(cw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if err := refWriteNode(cw, t.root); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, cw.crc)
}

func refWriteNode(w io.Writer, nd *node) error {
	if nd.leaf {
		if err := binary.Write(w, binary.LittleEndian, uint8(1)); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, uint32(nd.class)); err != nil {
			return err
		}
		for _, p := range nd.probs {
			if err := binary.Write(w, binary.LittleEndian, math.Float64bits(p)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := binary.Write(w, binary.LittleEndian, uint8(0)); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(nd.feature)); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, math.Float64bits(nd.threshold)); err != nil {
		return err
	}
	if err := refWriteNode(w, nd.left); err != nil {
		return err
	}
	return refWriteNode(w, nd.right)
}

func refLoad(r io.Reader) (*Tree, error) {
	cr := &refCRCReader{r: r}
	magic := make([]byte, 4)
	if _, err := io.ReadFull(cr, magic); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTree, err)
	}
	if string(magic) != refTreeMagic {
		return nil, fmt.Errorf("%w: magic %q", ErrBadTree, magic)
	}
	var version, features, classes, nodes uint32
	for _, p := range []*uint32{&version, &features, &classes, &nodes} {
		if err := binary.Read(cr, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadTree, err)
		}
	}
	if version != treeVersion {
		return nil, fmt.Errorf("%w: version %d", ErrBadTree, version)
	}
	if features == 0 || classes < 2 || nodes == 0 || nodes > 1<<24 {
		return nil, fmt.Errorf("%w: header %d/%d/%d", ErrBadTree, features, classes, nodes)
	}
	t := &Tree{features: int(features), classes: int(classes), nodes: int(nodes)}
	var read int
	root, err := refReadNode(cr, t.classes, &read, int(nodes))
	if err != nil {
		return nil, err
	}
	if read != int(nodes) {
		return nil, fmt.Errorf("%w: node count %d != %d", ErrBadTree, read, nodes)
	}
	t.root = root
	want := cr.crc
	var got uint32
	if err := binary.Read(r, binary.LittleEndian, &got); err != nil {
		return nil, fmt.Errorf("%w: missing checksum: %v", ErrBadTree, err)
	}
	if got != want {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadTree)
	}
	return t, nil
}

func refReadNode(r io.Reader, classes int, read *int, limit int) (*node, error) {
	if *read >= limit {
		return nil, fmt.Errorf("%w: more nodes than declared", ErrBadTree)
	}
	*read++
	var kind uint8
	if err := binary.Read(r, binary.LittleEndian, &kind); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTree, err)
	}
	switch kind {
	case 1:
		var class uint32
		if err := binary.Read(r, binary.LittleEndian, &class); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadTree, err)
		}
		if int(class) >= classes {
			return nil, fmt.Errorf("%w: leaf class %d", ErrBadTree, class)
		}
		probs := make([]float64, classes)
		for i := range probs {
			var bits uint64
			if err := binary.Read(r, binary.LittleEndian, &bits); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadTree, err)
			}
			probs[i] = math.Float64frombits(bits)
		}
		return &node{leaf: true, class: int(class), probs: probs}, nil
	case 0:
		var feature uint32
		var bits uint64
		if err := binary.Read(r, binary.LittleEndian, &feature); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadTree, err)
		}
		if err := binary.Read(r, binary.LittleEndian, &bits); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadTree, err)
		}
		nd := &node{feature: int(feature), threshold: math.Float64frombits(bits)}
		var err error
		if nd.left, err = refReadNode(r, classes, read, limit); err != nil {
			return nil, err
		}
		if nd.right, err = refReadNode(r, classes, read, limit); err != nil {
			return nil, err
		}
		return nd, nil
	default:
		return nil, fmt.Errorf("%w: node kind %d", ErrBadTree, kind)
	}
}
