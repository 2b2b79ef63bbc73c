package ringbuf

import "testing"

// FuzzRingPushPop drives a ring with an arbitrary operation sequence and
// checks it against a reference FIFO: values come out in push order, Len
// tracks the model, and every rejected push corresponds to a full ring
// with an incremented drop counter.
func FuzzRingPushPop(f *testing.F) {
	f.Add(uint8(0), []byte{0, 0, 1, 0, 1, 1})
	f.Add(uint8(3), []byte{0, 1, 0, 1, 0, 1, 0, 1})
	f.Add(uint8(255), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1})
	f.Fuzz(func(t *testing.T, capSeed uint8, ops []byte) {
		capacity := int(capSeed)%64 + 1
		r := New[int](capacity)
		var model []int
		next := 0
		drops := uint64(0)
		for _, op := range ops {
			if op%2 == 0 {
				ok := r.TryPush(next)
				if ok {
					if len(model) >= r.Cap() {
						t.Fatalf("push succeeded on full ring: model %d, cap %d", len(model), r.Cap())
					}
					model = append(model, next)
				} else {
					if len(model) != r.Cap() {
						t.Fatalf("push rejected on non-full ring: model %d, cap %d", len(model), r.Cap())
					}
					drops++
				}
				next++
			} else {
				got, ok := pop(r)
				if ok != (len(model) > 0) {
					t.Fatalf("pop ok=%v with %d modeled elements", ok, len(model))
				}
				if ok {
					if got != model[0] {
						t.Fatalf("pop got %d, want %d (FIFO order)", got, model[0])
					}
					model = model[1:]
				}
			}
			if r.Len() != len(model) {
				t.Fatalf("Len() = %d, model holds %d", r.Len(), len(model))
			}
		}
		if r.Dropped() != drops {
			t.Fatalf("Dropped() = %d, want %d", r.Dropped(), drops)
		}
		// Drain with PopBatch and verify the tail of the model.
		dst := make([]int, r.Cap())
		n := r.PopBatch(dst)
		if n != len(model) {
			t.Fatalf("PopBatch drained %d, want %d", n, len(model))
		}
		for i := 0; i < n; i++ {
			if dst[i] != model[i] {
				t.Fatalf("PopBatch[%d] = %d, want %d", i, dst[i], model[i])
			}
		}
	})
}
