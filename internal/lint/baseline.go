package lint

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// Baseline is a committed set of accepted diagnostics — the ratchet. A
// run is clean when every diagnostic matches a baseline entry; a
// diagnostic outside the baseline is new debt and fails, and a baseline
// entry no diagnostic matches is stale and fails too, so the file can
// only shrink. Entries are keyed without line numbers (module-relative
// file, analyzer, message), so unrelated edits moving code around do not
// invalidate the baseline, while any change to what the analyzers see
// does.
//
// File format: one entry per line, '#' comments and blank lines ignored.
// A line is exactly BaselineKey's rendering:
//
//	internal/foo/bar.go: [analyzer] message text
//
// Duplicate lines accept that many identical diagnostics.
type Baseline struct {
	counts map[string]int
	order  []string
}

// BaselineKey renders a diagnostic's stable identity: the module-relative
// path, the analyzer, and the message — no line/column, which churn.
func BaselineKey(mod *Module, d Diagnostic) string {
	return fmt.Sprintf("%s: [%s] %s", relPath(mod, d.Pos.Filename), d.Analyzer, d.Message)
}

// ParseBaseline reads a baseline from r.
func ParseBaseline(r io.Reader) (*Baseline, error) {
	b := &Baseline{counts: make(map[string]int)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if b.counts[line] == 0 {
			b.order = append(b.order, line)
		}
		b.counts[line]++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return b, nil
}

// LoadBaseline reads a baseline file from disk.
func LoadBaseline(path string) (*Baseline, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseBaseline(f)
}

// Apply splits diags into new (not covered by the baseline) and
// suppressed, and returns the stale baseline entries that matched
// nothing. Suppression is counted: two identical diagnostics need two
// identical baseline lines.
func (b *Baseline) Apply(mod *Module, diags []Diagnostic) (fresh, suppressed []Diagnostic, stale []string) {
	remaining := make(map[string]int, len(b.counts))
	for k, n := range b.counts {
		remaining[k] = n
	}
	for _, d := range diags {
		key := BaselineKey(mod, d)
		if remaining[key] > 0 {
			remaining[key]--
			suppressed = append(suppressed, d)
		} else {
			fresh = append(fresh, d)
		}
	}
	for _, k := range b.order {
		if remaining[k] > 0 {
			stale = append(stale, k)
		}
	}
	sort.Strings(stale)
	return fresh, suppressed, stale
}

// FormatBaseline renders diags as baseline file content, sorted and
// deduplicated into repeated lines, with a header documenting the
// contract.
func FormatBaseline(mod *Module, diags []Diagnostic) string {
	var sb strings.Builder
	sb.WriteString("# kml-vet baseline — accepted diagnostics, one per line.\n")
	sb.WriteString("# The ratchet is strict both ways: a diagnostic not listed here fails\n")
	sb.WriteString("# the build, and a line here that no diagnostic matches is stale and\n")
	sb.WriteString("# fails too. Regenerate with: go run ./cmd/kml-vet -write-baseline\n")
	keys := make([]string, len(diags))
	for i, d := range diags {
		keys[i] = BaselineKey(mod, d)
	}
	sort.Strings(keys)
	for _, k := range keys {
		sb.WriteString(k)
		sb.WriteByte('\n')
	}
	return sb.String()
}
