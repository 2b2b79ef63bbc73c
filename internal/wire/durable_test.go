package wire

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// record is a durable-format shape: length-prefixed bytes, a uvarint,
// padding, all under a trailing CRC.
type record struct {
	Key []byte
	N   uint64
}

func recordLayout(c *Codec, r *record) {
	start := c.Mark()
	c.VarBytes(&r.Key)
	c.Uvarint(&r.N)
	c.Pad(2)
	c.CRC32(start)
}

func TestDurablePrimitivesMatchBinary(t *testing.T) {
	for _, r := range []record{{nil, 0}, {[]byte("k"), 127}, {bytes.Repeat([]byte("x"), 300), 1 << 63}} {
		var want []byte
		want = binary.AppendUvarint(want, uint64(len(r.Key)))
		want = append(want, r.Key...)
		want = binary.AppendUvarint(want, r.N)
		want = append(want, 0, 0)
		want = binary.LittleEndian.AppendUint32(want, crc32.ChecksumIEEE(want))
		got := Append([]byte("prefix"), r, recordLayout)
		if !bytes.Equal(got[6:], want) {
			t.Fatalf("Append(%d-byte key, %d) = %x, want %x", len(r.Key), r.N, got[6:], want)
		}
		back, err := Parse(want, recordLayout, errBad)
		if err != nil || !bytes.Equal(back.Key, r.Key) || back.N != r.N {
			t.Fatalf("Parse = %+v, %v", back, err)
		}
	}
}

func TestDurableDecodeFailures(t *testing.T) {
	good := Append(nil, record{[]byte("key"), 5}, recordLayout)
	flipped := append([]byte(nil), good...)
	flipped[1] ^= 1
	badPad := append([]byte(nil), good...)
	badPad[len(badPad)-5] = 9 // padding is not read back, but the CRC covers it
	for name, b := range map[string][]byte{
		"truncated":        good[:len(good)-1],
		"flipped key byte": flipped,
		"dirty padding":    badPad,
		// 2^63: compared as an int, this length would wrap negative.
		"hostile length":   {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 'k'},
		"length too long":  {4, 'k', 'e', 'y'},
		"overlong varint":  {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
		"truncated varint": {0x80},
	} {
		if _, err := Parse(b, recordLayout, errBad); err != errBad {
			t.Errorf("%s: err = %v, want errBad", name, err)
		}
	}
}

// TestVarBytesAliasesClipped: a decoded slice is the input's own bytes,
// and an append to it reallocates rather than overwriting what follows.
func TestVarBytesAliasesClipped(t *testing.T) {
	for _, n := range []int{3, 200} { // the one-byte and the varint length paths
		in := Append(nil, record{bytes.Repeat([]byte("k"), n), 9}, recordLayout)
		r, err := Parse(in, recordLayout, errBad)
		if err != nil {
			t.Fatal(err)
		}
		if &r.Key[0] != &in[len(in)-len(r.Key)-7] || cap(r.Key) != n {
			t.Fatalf("%d-byte key: not an in-place, capacity-clipped view", n)
		}
		_ = append(r.Key, 'X')
		if again, err := Parse(in, recordLayout, errBad); err != nil || again.N != 9 {
			t.Fatalf("%d-byte key: an append to the key changed the input", n)
		}
	}
}

// TestKeyValueIsTwoVarBytes: KeyValue writes what two VarBytes write, and
// decodes them back; a record that does not decode comes back as given.
func TestKeyValueIsTwoVarBytes(t *testing.T) {
	key, value := []byte("key"), bytes.Repeat([]byte("v"), 200)
	e := Encoder(nil)
	if k, v := e.KeyValue(key, value); &k[0] != &key[0] || &v[0] != &value[0] {
		t.Fatal("an encoder did not return its fields")
	}
	want := appendVarBytes(appendVarBytes(nil, key), value)
	if !bytes.Equal(e.Bytes(), want) {
		t.Fatalf("KeyValue wrote %x, want %x", e.Bytes(), want)
	}
	given := []byte("given")
	for cut := 0; cut <= len(want); cut++ {
		d := Decoder(want[:cut])
		k, v := d.KeyValue(given, given)
		switch {
		case cut == len(want):
			if d.End(errBad) != nil || !bytes.Equal(k, key) || !bytes.Equal(v, value) {
				t.Fatalf("whole record: %q, %q, %v", k, v, d.End(errBad))
			}
		case d.End(errBad) == nil || &k[0] != &given[0] || &v[0] != &given[0]:
			t.Fatalf("cut at %d: %q, %q, %v", cut, k, v, d.End(errBad))
		}
	}
}

// TestCutPrimitives: CutVarBytes splits what VarBytes writes off the front
// of its input, and CutSplitEntry what VarBytes, Bool and Uvarint write
// plus that many value bytes off the front of a second slice; on every
// truncation, and on a flag byte other than 0 or 1, they report failure,
// with the key when it fit.
func TestCutPrimitives(t *testing.T) {
	key, value := bytes.Repeat([]byte("k"), 200), bytes.Repeat([]byte("v"), 300)
	in := append(appendVarBytes(nil, key), 'x')
	for cut := 0; cut <= len(in); cut++ {
		b, rest, ok := CutVarBytes(in[:cut])
		switch {
		case cut < len(in)-1:
			if ok || b != nil || len(rest) != cut {
				t.Fatalf("CutVarBytes cut at %d: %q, %d left, %v", cut, b, len(rest), ok)
			}
		case !ok || !bytes.Equal(b, key) || cap(b) != len(key) || len(rest) != cut-len(in)+1:
			t.Fatalf("CutVarBytes cut at %d: %d bytes, cap %d, %d left, %v", cut, len(b), cap(b), len(rest), ok)
		}
	}
	values := append(append([]byte(nil), value...), 'y')
	for _, flag := range []bool{false, true} {
		e := Encoder(nil)
		vlen := uint64(len(value))
		e.VarBytes(&key)
		e.Bool(&flag)
		e.Uvarint(&vlen)
		keys := append(e.Bytes(), 'x')
		for cut := 0; cut <= len(keys); cut++ {
			for _, vcut := range []int{len(value) - 1, len(value), len(values)} {
				k, v, f, rk, rv, ok := CutSplitEntry(keys[:cut], values[:vcut])
				whole := cut >= len(keys)-1 && vcut >= len(value)
				if ok != whole || (k != nil) != (cut >= 2+len(key)) {
					t.Fatalf("CutSplitEntry cut at %d/%d: key %d bytes, ok %v", cut, vcut, len(k), ok)
				}
				if ok && (!bytes.Equal(k, key) || !bytes.Equal(v, value) || f != flag || cap(k) != len(key) ||
					cap(v) != len(value) || len(rk) != cut-len(keys)+1 || len(rv) != vcut-len(value)) {
					t.Fatalf("CutSplitEntry cut at %d/%d: %d, %d bytes, flag %v, %d and %d left", cut, vcut, len(k), len(v), f, len(rk), len(rv))
				}
			}
		}
		for _, bad := range []byte{2, 0x7f, 0x80, 0xff} {
			keys[2+len(key)] = bad
			if k, v, f, _, _, ok := CutSplitEntry(keys, values); ok || !bytes.Equal(k, key) || v != nil || f {
				t.Fatalf("CutSplitEntry with flag byte %#x: key %d bytes, value %d bytes, flag %v, ok %v", bad, len(k), len(v), f, ok)
			}
		}
	}
}

func TestFitsAndMore(t *testing.T) {
	c := Decoder([]byte{1, 2, 3})
	if !c.Fits(3) || !c.More() {
		t.Fatal("three bytes do not fit three")
	}
	if c.Fits(4) || c.More() || c.End(errBad) == nil {
		t.Fatal("Fits(4) of three bytes did not fail the decode")
	}
	e := Encoder(nil)
	if !e.Fits(1 << 40) {
		t.Fatal("an encoder failed Fits")
	}
}
