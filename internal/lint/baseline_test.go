package lint

import (
	"go/token"
	"strings"
	"testing"
)

func baselineDiag(file, analyzer, msg string, line int) Diagnostic {
	return Diagnostic{
		Pos:      token.Position{Filename: file, Line: line, Column: 1},
		Analyzer: analyzer,
		Message:  msg,
	}
}

// TestBaselineApply pins the ratchet semantics: keys ignore line numbers,
// suppression is counted, and unmatched entries are stale.
func TestBaselineApply(t *testing.T) {
	mod := &Module{Path: "m", Dir: "/m"}
	diags := []Diagnostic{
		baselineDiag("/m/a.go", "noalloc", "hot path F calls make (heap allocation)", 10),
		baselineDiag("/m/a.go", "noalloc", "hot path F calls make (heap allocation)", 20),
		baselineDiag("/m/b.go", "atomics", "plain access to hits", 5),
	}
	content := strings.Join([]string{
		"# comment",
		"",
		"a.go: [noalloc] hot path F calls make (heap allocation)",
		"c.go: [imports] kernelspace file imports fmt", // matches nothing: stale
	}, "\n")
	base, err := ParseBaseline(strings.NewReader(content))
	if err != nil {
		t.Fatal(err)
	}
	if len(base.order) != 2 {
		t.Fatalf("parsed %d entries, want 2", len(base.order))
	}
	fresh, suppressed, stale := base.Apply(mod, diags)
	// One of the two identical noalloc diagnostics is suppressed (one
	// baseline line = one occurrence); the second plus the atomics one
	// stay fresh.
	if len(suppressed) != 1 {
		t.Errorf("suppressed %d diagnostics, want 1", len(suppressed))
	}
	if len(fresh) != 2 {
		t.Errorf("fresh %d diagnostics, want 2 (line numbers must not distinguish entries)", len(fresh))
	}
	if len(stale) != 1 || !strings.HasPrefix(stale[0], "c.go:") {
		t.Errorf("stale = %v, want the unmatched c.go entry", stale)
	}
}

// TestBaselineRoundTrip: formatting diagnostics and reparsing suppresses
// exactly those diagnostics with nothing fresh and nothing stale.
func TestBaselineRoundTrip(t *testing.T) {
	mod := &Module{Path: "m", Dir: "/m"}
	diags := []Diagnostic{
		baselineDiag("/m/a.go", "noalloc", "hot path F calls make (heap allocation)", 10),
		baselineDiag("/m/a.go", "noalloc", "hot path F calls make (heap allocation)", 20),
		baselineDiag("/m/b.go", "atomics", "plain access to hits", 5),
	}
	base, err := ParseBaseline(strings.NewReader(FormatBaseline(mod, diags)))
	if err != nil {
		t.Fatal(err)
	}
	fresh, suppressed, stale := base.Apply(mod, diags)
	if len(fresh) != 0 || len(stale) != 0 || len(suppressed) != len(diags) {
		t.Errorf("round trip: fresh=%d stale=%d suppressed=%d, want 0/0/%d",
			len(fresh), len(stale), len(suppressed), len(diags))
	}
}
