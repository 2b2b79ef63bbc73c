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
//	kml-vet [packages]
//
// where packages are directories or Go-style `dir/...` patterns relative
// to the working directory (default "./..."). Every diagnostic fails the
// run; the only way to accept one is a directive at its site
// (//kml:coldpath, //kml:boundary or //kml:api <reason>, see internal/lint).
//
// Exit status is 0 when clean, 1 when violations are found, 2 on load
// errors.
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
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: kml-vet [packages]\n\nAnalyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(os.Stderr, "  %-10s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	os.Exit(run(flag.Args()))
}

func run(args []string) int {
	if len(args) == 0 {
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
	n := 0
	for _, d := range lint.Check(mod) {
		if inScope(scopes, d.Pos.Filename) {
			fmt.Println(d)
			n++
		}
	}
	if n > 0 {
		fmt.Fprintf(os.Stderr, "kml-vet: %d violation(s)\n", n)
		return 1
	}
	return 0
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
