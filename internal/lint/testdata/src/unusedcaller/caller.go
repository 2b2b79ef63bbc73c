// Package unusedcaller stands for a command: its uses of
// planted/internal/unused count.
package unusedcaller

import (
	"fmt"

	"planted/internal/unused"
)

// Use reaches the kept names of package unused the way a binary would.
func Use() {
	b := &unused.Box[int]{}
	fmt.Fprintln(unused.NewSink(), b.Get(), unused.Level(1))
}
