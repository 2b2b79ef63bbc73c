package lint

import (
	"go/ast"
	"strings"
)

// Directive comment spellings. Like //go:build they take no space after
// the slashes, which keeps gofmt from reflowing them.
const (
	dirKernelspace = "kml:kernelspace"
	dirHotpath     = "kml:hotpath"
	dirBoundary    = "kml:boundary"
	dirCheckErrors = "kml:checkerrors"
	dirColdpath    = "kml:coldpath"
	dirAPI         = "kml:api"
)

// knownDirectives is the closed set of recognized //kml: spellings. The
// directive analyzer rejects everything else: a typo like //kml:hotpah
// must be a diagnostic, not a silently disabled rule.
var knownDirectives = map[string]bool{
	dirKernelspace: true,
	dirHotpath:     true,
	dirBoundary:    true,
	dirCheckErrors: true,
	dirColdpath:    true,
	dirAPI:         true,
}

// directiveInfo is the parse of one comment line's directive attempt.
type directiveInfo struct {
	// Attempted: the comment's text (after the slashes, ignoring leading
	// whitespace) starts with "kml:" — the author meant to write a
	// directive, whether or not it is well-formed.
	Attempted bool
	// Canonical: the "kml:" immediately follows the slashes with no
	// intervening whitespace, the form gofmt preserves and the analyzers
	// honor (mirroring //go:build).
	Canonical bool
	// Name is the full directive spelling ("kml:" plus the word after it,
	// cut at the first whitespace). Empty when the colon is followed by
	// nothing.
	Name string
}

// parseDirective classifies one //-comment's full text (including the
// leading slashes). It never panics on arbitrary input — FuzzDirectiveParse
// holds it to that — and recognized spellings round-trip: for any parse
// with a non-empty Name, parseDirective("//"+Name) yields the same Name,
// Canonical, and Attempted=true.
func parseDirective(comment string) directiveInfo {
	var d directiveInfo
	text, ok := strings.CutPrefix(comment, "//")
	if !ok {
		return d // block comments cannot carry directives
	}
	trimmed := strings.TrimLeft(text, " \t")
	rest, ok := strings.CutPrefix(trimmed, "kml:")
	if !ok {
		return d
	}
	d.Attempted = true
	d.Canonical = len(trimmed) == len(text)
	if i := strings.IndexAny(rest, " \t\r\n\v\f"); i >= 0 {
		rest = rest[:i]
	}
	if rest != "" {
		d.Name = "kml:" + rest
	}
	return d
}

// fileDirectives are the file-level directives of one source file.
type fileDirectives struct {
	Kernelspace bool
	CheckErrors bool
}

// fileDirectivesOf scans the comment groups preceding the package clause
// (including the package doc comment) for file-level directives.
func fileDirectivesOf(f *ast.File) fileDirectives {
	var d fileDirectives
	for _, group := range f.Comments {
		if group.End() > f.Package {
			break
		}
		for _, c := range group.List {
			switch {
			case hasDirective(c.Text, dirKernelspace):
				d.Kernelspace = true
			case hasDirective(c.Text, dirCheckErrors):
				d.CheckErrors = true
			}
		}
	}
	return d
}

// declDirective reports whether the declaration's doc comment carries the
// given directive.
func declDirective(doc *ast.CommentGroup, dir string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if hasDirective(c.Text, dir) {
			return true
		}
	}
	return false
}

// isHotpath reports whether fn is annotated //kml:hotpath.
func isHotpath(fn *ast.FuncDecl) bool { return declDirective(fn.Doc, dirHotpath) }

// isColdpath reports whether fn is annotated //kml:coldpath — the audited
// escape hatch of the hotreach closure: the function is reachable from a
// hot path but deliberately cold (error reporting, misuse panics, one-time
// setup), so the closure does not descend into it.
func isColdpath(fn *ast.FuncDecl) bool { return declDirective(fn.Doc, dirColdpath) }

// isBoundary reports whether the declaration is an explicitly blessed
// user↔kernel boundary shim (exempt from the no-float rule).
func isBoundary(doc *ast.CommentGroup) bool { return declDirective(doc, dirBoundary) }

// hasDirective reports whether comment is exactly the canonical spelling
// of dir (optionally followed by arguments). Near-misses — a space after
// the slashes, a typo in the name — are NOT recognized; the directive
// analyzer reports them instead of silently dropping enforcement.
func hasDirective(comment, dir string) bool {
	d := parseDirective(comment)
	return d.Attempted && d.Canonical && d.Name == dir
}

// kernelspaceFiles returns the indices of pkg's kernelspace files.
func kernelspaceFiles(pkg *Package) []int {
	var out []int
	for i, f := range pkg.Files {
		if fileDirectivesOf(f).Kernelspace {
			out = append(out, i)
		}
	}
	return out
}

// hasKernelspaceFile reports whether any file of pkg is kernelspace.
func hasKernelspaceFile(pkg *Package) bool { return len(kernelspaceFiles(pkg)) > 0 }
