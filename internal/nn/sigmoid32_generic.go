//go:build !amd64 || purego

package nn

// sigmoidRows applies sigmoid32 to every element in place. On amd64 an SSE
// kernel replaces this build (sigmoid32_amd64.go); both produce the same
// bits for every input.
//
//kml:hotpath
func sigmoidRows(xs []float32) {
	for i, v := range xs {
		xs[i] = sigmoid32(v)
	}
}
