// Command kml-vet runs the KML kernel-portability analyzers over the
// module (see internal/lint): the same code must run in user space and in
// kernel space, so kernelspace files may not use floats, locks, channels,
// or forbidden imports; //kml:hotpath functions may not allocate; the
// hotreach closure requires everything reachable from hot or kernelspace
// code to be annotated; the atomics analyzer forbids mixed atomic/plain
// access and lock copies; and the unused analyzer reports every func,
// method and type under internal/ with no non-test use in the module
// (the one exemption is //kml:api <reason>).
//
// Usage:
//
//	kml-vet [-json] [-baseline file] [-write-baseline file] [packages]
//
// where packages are directories or Go-style `dir/...` patterns relative
// to the working directory (default "./..."). With -baseline, diagnostics
// listed in the baseline file are suppressed; on a full-module run, stale
// baseline entries (matching nothing) are themselves failures, so the
// baseline only ratchets down. With -json, the report is emitted as a
// machine-readable document on stdout (CI uploads it as an artifact).
// -write-baseline regenerates the baseline from the current diagnostics.
//
// Exit status is 0 when clean, 1 when violations (or stale baseline
// entries) are found, 2 on load errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit a machine-readable JSON report on stdout")
	baselinePath := flag.String("baseline", "", "suppress diagnostics listed in this baseline `file`")
	writeBaseline := flag.String("write-baseline", "", "write the current diagnostics to `file` as a baseline and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: kml-vet [-json] [-baseline file] [-write-baseline file] [packages]\n\nAnalyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(os.Stderr, "  %-10s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	os.Exit(run(flag.Args(), *jsonOut, *baselinePath, *writeBaseline))
}

func run(args []string, jsonOut bool, baselinePath, writeBaseline string) int {
	fullModule := len(args) == 0
	if fullModule {
		args = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "kml-vet:", err)
		return 2
	}
	mod, err := lint.LoadModule(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kml-vet:", err)
		return 2
	}
	scopes, err := resolveScopes(cwd, args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kml-vet:", err)
		return 2
	}
	for _, s := range scopes {
		// An explicit ./... from the module root sees everything; treat
		// it as the full-module run it is so staleness is enforced.
		if s.recursive && s.dir == mod.Dir {
			fullModule = true
		}
	}
	var diags []lint.Diagnostic
	for _, d := range lint.Check(mod) {
		if inScope(scopes, d.Pos.Filename) {
			diags = append(diags, d)
		}
	}

	if writeBaseline != "" {
		content := lint.FormatBaseline(mod, diags)
		if err := os.WriteFile(writeBaseline, []byte(content), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "kml-vet:", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "kml-vet: wrote %d baseline entr%s to %s\n",
			len(diags), plural(len(diags), "y", "ies"), writeBaseline)
		return 0
	}

	fresh, suppressed, stale := diags, []lint.Diagnostic(nil), []string(nil)
	if baselinePath != "" {
		base, err := lint.LoadBaseline(baselinePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "kml-vet:", err)
			return 2
		}
		fresh, suppressed, stale = base.Apply(mod, diags)
		if !fullModule {
			// A scoped run sees only a slice of the module; entries for
			// files outside the scope are not stale, just unobserved.
			stale = nil
		}
	}

	if jsonOut {
		rep := lint.NewJSONReport(mod, lint.Analyzers(), fresh, suppressed, stale)
		if err := rep.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "kml-vet:", err)
			return 2
		}
	} else {
		for _, d := range fresh {
			fmt.Println(d)
		}
		for _, s := range stale {
			fmt.Printf("stale baseline entry (no diagnostic matches; remove the line): %s\n", s)
		}
	}
	if n := len(fresh); n > 0 {
		fmt.Fprintf(os.Stderr, "kml-vet: %d violation(s)\n", n)
		return 1
	}
	if len(stale) > 0 {
		fmt.Fprintf(os.Stderr, "kml-vet: %d stale baseline entr%s — the ratchet only turns one way\n",
			len(stale), plural(len(stale), "y", "ies"))
		return 1
	}
	return 0
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

// scope is a directory filter: exact directory, or recursive subtree.
type scope struct {
	dir       string
	recursive bool
}

func resolveScopes(cwd string, args []string) ([]scope, error) {
	var out []scope
	for _, arg := range args {
		rec := false
		if rest, ok := strings.CutSuffix(arg, "/..."); ok {
			rec = true
			arg = rest
			if arg == "" {
				arg = "."
			}
		} else if arg == "..." {
			rec, arg = true, "."
		}
		dir := arg
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(cwd, dir)
		}
		abs, err := filepath.Abs(dir)
		if err != nil {
			return nil, err
		}
		// A typo'd scope must not read as "clean": it would silently
		// filter every diagnostic out.
		if fi, err := os.Stat(abs); err != nil || !fi.IsDir() {
			return nil, fmt.Errorf("no such package directory: %s", arg)
		}
		out = append(out, scope{dir: abs, recursive: rec})
	}
	return out, nil
}

func inScope(scopes []scope, file string) bool {
	dir := filepath.Dir(file)
	for _, s := range scopes {
		if dir == s.dir {
			return true
		}
		if s.recursive && strings.HasPrefix(dir, s.dir+string(filepath.Separator)) {
			return true
		}
	}
	return false
}
