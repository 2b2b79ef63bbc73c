package wire

import (
	"bytes"
	"errors"
	"testing"
)

var errBad = errors.New("bad")

type pair struct {
	A uint16
	B []uint64
}

func pairLayout(c *Codec, p *pair) {
	c.U16(&p.A)
	c.Check(p.A != 0)
	List16(c, &p.B, 4, 8, (*Codec).U64)
}

func TestRoundTripAndCanonical(t *testing.T) {
	b := Append(nil, pair{7, []uint64{1, 2, 3, 4, 5}}, pairLayout)
	want := []byte{7, 0, 4, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0}
	if !bytes.Equal(b, want) {
		t.Fatalf("Append = %v, want %v (the list keeps its first 4)", b, want)
	}
	p, err := Parse(b, pairLayout, errBad)
	if err != nil || p.A != 7 || len(p.B) != 4 || p.B[3] != 4 {
		t.Fatalf("Parse = %+v, %v", p, err)
	}
	if !bytes.Equal(Append(nil, p, pairLayout), b) {
		t.Fatal("re-encoding differs")
	}
}

func TestDecodeFailures(t *testing.T) {
	good := Append(nil, pair{7, []uint64{1}}, pairLayout)
	for name, b := range map[string][]byte{
		"empty":         {},
		"short":         good[:len(good)-1],
		"trailing":      append(append([]byte(nil), good...), 0),
		"check":         append([]byte{0, 0}, good[2:]...),
		"over max":      {7, 0, 5, 0},
		"lying count":   {7, 0, 0xFF, 0xFF, 1, 2, 3},
		"count no room": {7, 0, 2, 0, 1, 0, 0, 0, 0, 0, 0, 0},
	} {
		if p, err := Parse(b, pairLayout, errBad); err != errBad || p.A != 0 || p.B != nil {
			t.Errorf("%s: Parse = %+v, %v; want the zero value and errBad", name, p, err)
		}
	}
}

func TestCountFailsBeforeAllocation(t *testing.T) {
	c := Decoder([]byte{0xFF, 0xFF, 1, 2, 3})
	n := 99
	c.Len16(&n, 1<<16, 8)
	if n != 0 || c.Check(true) {
		t.Fatalf("lying count read as %d, codec good = %v; want 0 and failed", n, c.Check(true))
	}
	// Sticky: a later read in bounds leaves its target untouched.
	v := uint16(5)
	c.U16(&v)
	if v != 5 || c.End(errBad) != errBad {
		t.Fatalf("read after failure set %d, End = %v", v, c.End(errBad))
	}
}

func TestEncoderClampsAndIgnoresChecks(t *testing.T) {
	name, path, flag := "", "abcdef", true
	c := Encoder(nil)
	c.Name(&name, 4)
	c.String16(&path, 3)
	c.Check(false)
	c.Bool(&flag)
	want := []byte{1, '?', 3, 0, 'a', 'b', 'c', 1}
	if !bytes.Equal(c.Bytes(), want) || name != "" || path != "abcdef" {
		t.Fatalf("encoded %v (name %q, path %q), want %v and the inputs untouched", c.Bytes(), name, path, want)
	}
	d := Decoder([]byte{2})
	flag = false
	if d.Bool(&flag); flag || d.End(errBad) == nil {
		t.Fatal("Bool accepted 2")
	}
}

func TestNewest(t *testing.T) {
	s := []int{1, 2, 3, 4}
	if got := Newest(s, 2); len(got) != 2 || got[0] != 3 {
		t.Fatalf("Newest(s, 2) = %v", got)
	}
	if got := Newest(s, 9); len(got) != 4 {
		t.Fatalf("Newest(s, 9) = %v", got)
	}
}
