package unused

import "testing"

// A call from a test is not a use.
func TestOnlyTested(t *testing.T) {
	if OnlyTested() != 1 {
		t.Fatal("OnlyTested")
	}
}
