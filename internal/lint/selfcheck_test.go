package lint

import (
	"path/filepath"
	"testing"
)

// TestRepoSelfCheck runs every analyzer over the whole repository inside
// `go test ./...`, so tier-1 verification fails the moment a future change
// breaks the kernel-portability contract — a float in ringbuf, an append
// on a hot path, a fmt import in a kernelspace file. This is the
// machine-checked version of the design rules in DESIGN.md.
func TestRepoSelfCheck(t *testing.T) {
	mod, err := LoadModule(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("loading repo module: %v", err)
	}
	if mod.Path != "repro" {
		t.Fatalf("loaded module %q, want repro", mod.Path)
	}
	diags := Check(mod)
	for _, d := range diags {
		t.Errorf("kml-vet violation: %s", d)
	}
	if len(diags) > 0 {
		t.Log("run `go run ./cmd/kml-vet ./...` for the same report; " +
			"see DESIGN.md \"Kernel-portability enforcement\"")
	}
	// The contract only bites if the directives are actually present:
	// guard against someone deleting the annotations wholesale.
	kernelspace := 0
	for _, pkg := range mod.Pkgs {
		kernelspace += len(kernelspaceFiles(pkg))
	}
	if kernelspace < 4 {
		t.Errorf("only %d //kml:kernelspace files in the repo; ringbuf, fixed, matrix/fixedmat and nn/fixednet must stay annotated", kernelspace)
	}
}
