package lint

import (
	"go/ast"
	"sort"
	"strings"
)

// Directive validates every //kml: comment in the module. The analyzers
// act only on canonical, known spellings, so before v2 a typo like
// //kml:hotpah — or a directive drifted out of its doc-comment position —
// silently disabled enforcement. Now every attempted directive that the
// framework will not honor is itself a diagnostic:
//
//   - unknown names (//kml:hotpah, //kml:)
//   - malformed spacing (// kml:hotpath — gofmt-preserved directives take
//     no space after the slashes, mirroring //go:build)
//   - misplaced directives: file-level directives (kernelspace,
//     checkerrors) anywhere after the package clause, and declaration-level
//     directives (hotpath, coldpath, boundary, api) outside a top-level
//     doc comment, where the loader never looks
//   - a //kml:api with no reason after it
var Directive = &Analyzer{
	Name: "directive",
	Doc:  "//kml: directives must be well-formed, known, and placed where they take effect",
	Run:  runDirective,
}

// fileLevelDirectives are honored only in comment groups that end before
// the package clause.
var fileLevelDirectives = map[string]bool{
	dirKernelspace: true,
	dirCheckErrors: true,
}

// declLevelDirectives are honored only in the doc comment of a top-level
// declaration; boundary and api additionally apply to GenDecls.
var declLevelDirectives = map[string]bool{
	dirHotpath:  true,
	dirColdpath: true,
	dirBoundary: true,
	dirAPI:      true,
}

func runDirective(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		docs := topLevelDocGroups(file)
		for _, group := range file.Comments {
			header := group.End() <= file.Package
			decl, isDoc := docs[group]
			for _, c := range group.List {
				d := parseDirective(c.Text)
				if !d.Attempted {
					continue
				}
				switch {
				case !d.Canonical:
					pass.Reportf(c.Pos(), "malformed kml directive %q: no space allowed between // and kml: (like //go:build)", strings.TrimSpace(c.Text))
				case d.Name == "":
					pass.Reportf(c.Pos(), "malformed kml directive: missing name after kml:")
				case !knownDirectives[d.Name]:
					pass.Reportf(c.Pos(), "unknown kml directive //%s (known: %s)", d.Name, knownDirectiveList())
				case fileLevelDirectives[d.Name] && !header:
					pass.Reportf(c.Pos(), "misplaced //%s: file-level directives must appear before the package clause to take effect", d.Name)
				case declLevelDirectives[d.Name] && !isDoc:
					pass.Reportf(c.Pos(), "misplaced //%s: declaration-level directives must appear in the doc comment of a top-level declaration to take effect", d.Name)
				case d.Name == dirAPI && strings.TrimSpace(strings.TrimPrefix(c.Text, "//"+dirAPI)) == "":
					// Reported at the declaration: a reason is what the
					// line is missing.
					pass.Reportf(decl.Pos(), "//%s needs a reason: say why the declaration stays without a non-test caller", dirAPI)
				}
			}
		}
	}
}

// topLevelDocGroups maps each comment group that is the doc comment of a
// top-level declaration — the only position where declaration-level
// directives are honored — to that declaration.
func topLevelDocGroups(file *ast.File) map[*ast.CommentGroup]ast.Decl {
	docs := make(map[*ast.CommentGroup]ast.Decl)
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Doc != nil {
				docs[d.Doc] = d
			}
		case *ast.GenDecl:
			if d.Doc != nil {
				docs[d.Doc] = d
			}
		}
	}
	return docs
}

func knownDirectiveList() string {
	names := make([]string, 0, len(knownDirectives))
	for n := range knownDirectives {
		names = append(names, "//"+n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
