// Package wiretest damages encoded images the way storage does, for the
// durable-format tests: a torn write leaves a prefix, a bad sector or bit
// rot changes a byte. Each format's tests state what its decoder must do
// with every such image.
package wiretest

import "fmt"

// A Mutation is one damaged copy of an image.
type Mutation struct {
	Data []byte // the damaged image, a fresh copy the caller may keep
	Cut  bool   // Data is the image truncated to At bytes
	At   int    // the cut length, or the offset of the flipped byte
}

func (m Mutation) String() string {
	if m.Cut {
		return fmt.Sprintf("truncated to %d bytes", m.At)
	}
	return fmt.Sprintf("byte %d flipped", m.At)
}

// Each calls fn with every truncation of img, from empty to one byte
// short, and then with img with each byte in turn inverted (XOR 0xFF).
//
//kml:api a helper package for tests: its callers are the *MatchesReference tests
func Each(img []byte, fn func(Mutation)) {
	for n := range img {
		fn(Mutation{Data: append([]byte(nil), img[:n]...), Cut: true, At: n})
	}
	for i := range img {
		m := append([]byte(nil), img...)
		m[i] ^= 0xFF
		fn(Mutation{Data: m, At: i})
	}
}
