// Package lint implements kml-vet, a custom static-analysis pass that
// machine-checks the kernel-portability contract the paper's framework
// depends on (§3, "thin portability layer"; the extended KML paper spends a
// full section on in-kernel constraints): code that must run in kernel
// space may not use the FPU, the heap, locks, or most of libc, and code on
// the data-collection hot path may not allocate at all.
//
// The rules are attached to the source with two directive comments:
//
//	//kml:kernelspace   (file level, before the package clause)
//	    Every declaration in the file must be executable in kernel
//	    context: no floating point, no sync (only sync/atomic), no
//	    channels or goroutines, and only allowlisted imports.
//
//	//kml:hotpath       (function level, in the doc comment)
//	    The function runs inline on the I/O path: no make/new/append,
//	    no escaping composite literals, no closures, no defer, and no
//	    interface conversions (each implies a heap allocation or
//	    unbounded latency).
//
// Two auxiliary directives refine the boundary:
//
//	//kml:boundary      (declaration level)
//	    Marks an explicitly blessed user↔kernel conversion shim inside a
//	    kernelspace file (e.g. fixed.FromFloat): the no-float rule does
//	    not apply inside it. Boundary shims are for quantization and
//	    debugging; kernel callers must not reach them on the hot path.
//
//	//kml:checkerrors   (file level)
//	    Opts the file into the unchecked-error analyzer: any call whose
//	    error result is silently discarded is reported (persistence code
//	    like the model serializer and the WAL must never drop errors).
//
// One more analyzer keeps the library small: unused reports every func,
// method and type under internal/ that no non-test code in the module
// uses. Its one exemption is
//
//	//kml:api <reason>   (declaration level)
//	    The declaration stays without a non-test caller, for the reason
//	    given (which must not be empty); on a type it also covers the
//	    type's methods.
//
// The implementation is pure standard library — go/parser, go/ast,
// go/token, go/types — preserving the repo's no-external-dependency
// constraint. See cmd/kml-vet for the command front end and
// selfcheck_test.go for the tier-1 enforcement hook.
package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// Diagnostic is one rule violation, carrying the resolved file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Analyzer is one named rule over a type-checked package — or, when
// Module is set, over the whole module at once (the call-graph closure and
// the atomics analysis need every package's types in one view).
type Analyzer struct {
	Name   string
	Doc    string
	Module bool
	Run    func(*Pass)
}

// Pass gives an analyzer its inputs and a report sink. Per-package
// analyzers see one Pkg per invocation; module analyzers are invoked once
// with Pkg nil and walk Mod.Pkgs themselves.
type Pass struct {
	Mod  *Module
	Pkg  *Package
	name string
	sink *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.sink = append(*p.sink, Diagnostic{
		Pos:      p.Mod.Fset.Position(pos),
		Analyzer: p.name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full rule set in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{NoFloat, NoAlloc, LockFree, Imports, ErrCheck, Directive, HotReach, Atomics, Unused}
}

// Check runs every analyzer over every package of the module and returns
// the diagnostics sorted by position.
func Check(mod *Module) []Diagnostic {
	return CheckWith(mod, Analyzers())
}

// CheckWith runs the given analyzers over every package of the module.
func CheckWith(mod *Module, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		if a.Module {
			a.Run(&Pass{Mod: mod, name: a.Name, sink: &diags})
			continue
		}
		for _, pkg := range mod.Pkgs {
			a.Run(&Pass{Mod: mod, Pkg: pkg, name: a.Name, sink: &diags})
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags
}
