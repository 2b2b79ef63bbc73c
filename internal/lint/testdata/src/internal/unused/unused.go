// Package unused plants declarations for the unused analyzer. The names
// whose line carries a want marker have no non-test use in the module;
// every other name is used in a way the analyzer must see
// (planted/unusedcaller stands for cmd/).
package unused

import "io"

// OnlyTested is called only from unused_test.go.
func OnlyTested() int { return 1 } // want:unused

// orphan is an unexported helper nothing calls.
func orphan() int { return 2 } // want:unused

// Countdown calls only itself: a use inside its own body does not count.
func Countdown(n int) int { // want:unused
	if n <= 0 {
		return 0
	}
	return Countdown(n - 1)
}

// Lonely is named only by its own method, which nothing calls.
type Lonely struct{} // want:unused

func (l *Lonely) touch() {} // want:unused

// Box is generic; its Get is reached only through Box[int].
type Box[T any] struct{ v T }

// Get returns the boxed value.
func (b *Box[T]) Get() T { return b.v }

// Sink reaches its callers only as an io.Writer, so Write is called only
// through that standard-library interface.
type Sink struct{ n int }

// NewSink returns a Sink as an io.Writer.
func NewSink() io.Writer { return &Sink{} }

// Write implements io.Writer.
func (s *Sink) Write(p []byte) (int, error) {
	s.n += len(p)
	return len(p), nil
}

// Level has a String method nothing calls by name: fmt finds it.
type Level int

// String names the level.
func (l Level) String() string { return "level" }

// Handle has no caller and is kept on purpose.
//
//kml:api a planted exemption: a surface kept for a caller outside the module
type Handle struct{}

// Close is covered by its type's //kml:api.
func (h *Handle) Close() {}

// Keep has no caller and is kept on purpose.
//
//kml:api a planted exemption on a func
func Keep() {}
