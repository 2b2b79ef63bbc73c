// Package directive plants malformed, unknown, and misplaced kml
// directives: each must surface as a diagnostic, never as a silently
// disabled rule.
package directive

// Typoed carries a misspelled directive name.
//
//kml:hotpah want:directive
func Typoed() {}

// Spaced puts a space between the slashes and kml:, the form gofmt
// reflows and the loader ignores.
//
// kml:hotpath want:directive
func Spaced() {}

// Empty carries a directive with no name after the colon.
//
// kml: want:directive
func Empty() {}

// Late declares kernelspace after the package clause, where the file
// loader never looks.
//
//kml:kernelspace want:directive
func Late() {}

// The group below floats between declarations — a blank line separates
// it from Detached, so it is no doc comment and annotates nothing.

//kml:hotpath want:directive

// Detached is not annotated by the floating comment above.
func Detached() {}

// Bare carries //kml:api with no reason after it.
//
//kml:api
func Bare() {} // want:directive
