package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Unused reports every func, method and type declared under the module's
// internal/ tree that no non-test code in the module uses. The loader
// skips _test.go files, so a name only tests reach is reported; callers in
// cmd/, examples/ and benchmark/ count like any other.
//
// A use of a generic instantiation is a use of its origin. A method also
// counts as used when its name and signature match a method of an
// interface type that non-test code refers to (in the module or the
// standard library: a value passed as a types.Importer keeps its Import
// method), and String() is always used because fmt reaches it without
// naming fmt.Stringer. A use inside the declaration itself — recursion, or
// a type named in its own methods — does not count.
//
// The one exemption is //kml:api <reason> in the declaration's doc
// comment; on a type it also covers the type's methods. The check is not
// transitive: deleting a reported name can leave another one unused, so a
// sweep runs it to a fixed point.
var Unused = &Analyzer{
	Name:   "unused",
	Doc:    "every func, method and type under internal/ needs a non-test use (or //kml:api <reason>)",
	Module: true,
	Run:    runUnused,
}

// unusedCand is one declaration the analyzer may report.
type unusedCand struct {
	obj   types.Object
	name  *ast.Ident
	decls []ast.Node // the spans whose uses of obj do not count
}

func runUnused(pass *Pass) {
	internal := pass.Mod.Path + "/internal"
	var cands []*unusedCand
	byObj := make(map[types.Object]*unusedCand)
	add := func(obj types.Object, name *ast.Ident, decl ast.Node) {
		c := &unusedCand{obj: obj, name: name, decls: []ast.Node{decl}}
		cands = append(cands, c)
		byObj[obj] = c
	}
	for _, pkg := range pass.Mod.Pkgs {
		if pkg.ImportPath != internal && !strings.HasPrefix(pkg.ImportPath, internal+"/") {
			continue
		}
		apiTypes := make(map[string]bool)
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
					if isAPI(gd.Doc) {
						apiTypes[ts.Name.Name] = true
						continue
					}
					add(pkg.Info.Defs[ts.Name], ts.Name, ts)
				}
			}
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || isAPI(fd.Doc) || fd.Name.Name == "init" || fd.Name.Name == "_" {
					continue
				}
				recv := receiverTypeName(fd)
				if recv != "" {
					// A type's own methods do not use the type.
					if tn, ok := pkg.Types.Scope().Lookup(recv).(*types.TypeName); ok {
						if c := byObj[tn]; c != nil {
							c.decls = append(c.decls, fd)
						}
					}
					if apiTypes[recv] {
						continue
					}
				}
				add(pkg.Info.Defs[fd.Name], fd.Name, fd)
			}
		}
	}

	used := make(map[types.Object]bool)
	ifaces := make(map[*types.Interface]bool)
	seen := make(map[types.Type]bool)
	for _, pkg := range pass.Mod.Pkgs {
		for id, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			if c := byObj[obj]; c != nil && !within(id.Pos(), c.decls) {
				used[obj] = true
			}
			if v, ok := obj.(*types.Var); ok {
				collectInterfaces(v.Type(), ifaces, seen)
			}
		}
		for _, tv := range pkg.Info.Types {
			collectInterfaces(tv.Type, ifaces, seen)
		}
	}
	// Method sets of every referenced interface, by name, plus String()
	// string, which fmt finds by a type assertion.
	byName := map[string][]*types.Func{"String": {stringMethod}}
	for it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			m := it.Method(i)
			byName[m.Name()] = append(byName[m.Name()], m)
		}
	}

	for _, c := range cands {
		if used[c.obj] {
			continue
		}
		kind := "type"
		if fn, ok := c.obj.(*types.Func); ok {
			if satisfiesAny(fn, byName[fn.Name()]) {
				continue
			}
			kind = "func"
			if fn.Type().(*types.Signature).Recv() != nil {
				kind = "method"
			}
		}
		pass.Reportf(c.name.Pos(), "%s %s has no non-test use in the module: delete it, or mark it //kml:api <reason>",
			kind, qualifiedName(c.obj))
	}
}

// stringMethod is fmt.Stringer's method.
var stringMethod = types.NewFunc(token.NoPos, nil, "String", types.NewSignatureType(nil, nil, nil, nil,
	types.NewTuple(types.NewVar(token.NoPos, nil, "", types.Typ[types.String])), false))

// isAPI reports whether doc carries //kml:api.
func isAPI(doc *ast.CommentGroup) bool { return declDirective(doc, dirAPI) }

// receiverTypeName is the base type name of fd's receiver, "" for a func.
func receiverTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// within reports whether pos lies inside one of the nodes.
func within(pos token.Pos, nodes []ast.Node) bool {
	for _, n := range nodes {
		if n.Pos() <= pos && pos < n.End() {
			return true
		}
	}
	return false
}

// collectInterfaces records every interface t mentions through pointers,
// containers and signatures. It stops at a named non-interface type: a
// struct's field types are referred to only where code names them.
func collectInterfaces(t types.Type, out map[*types.Interface]bool, seen map[types.Type]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch x := t.(type) {
	case *types.Named:
		if it, ok := x.Underlying().(*types.Interface); ok {
			out[it] = true
		}
	case *types.Interface:
		out[x] = true
	case *types.Pointer:
		collectInterfaces(x.Elem(), out, seen)
	case *types.Slice:
		collectInterfaces(x.Elem(), out, seen)
	case *types.Array:
		collectInterfaces(x.Elem(), out, seen)
	case *types.Map:
		collectInterfaces(x.Key(), out, seen)
		collectInterfaces(x.Elem(), out, seen)
	case *types.Chan:
		collectInterfaces(x.Elem(), out, seen)
	case *types.Signature:
		for _, tup := range []*types.Tuple{x.Params(), x.Results()} {
			for i := 0; i < tup.Len(); i++ {
				collectInterfaces(tup.At(i).Type(), out, seen)
			}
		}
	}
}

// satisfiesAny reports whether method fn has the signature of one of the
// interface methods ms (receivers are ignored by types.Identical).
func satisfiesAny(fn *types.Func, ms []*types.Func) bool {
	if fn.Type().(*types.Signature).Recv() == nil {
		return false
	}
	for _, m := range ms {
		if types.Identical(fn.Type(), m.Type()) {
			return true
		}
	}
	return false
}

// qualifiedName spells obj as pkg.Name or pkg.Type.Method.
func qualifiedName(obj types.Object) string {
	name := obj.Pkg().Name() + "." + obj.Name()
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				name = obj.Pkg().Name() + "." + n.Obj().Name() + "." + obj.Name()
			}
		}
	}
	return name
}
