package kernel

import "embed"

// Source is the package as a program that imports it is built from:
// every non-test Go and assembly file, this one aside. The native back
// end writes it out as a module of its own, so an emitted program
// builds against the kernels this binary runs, with no module source
// around at run time (DESIGN.md §13 "Strips on native").
//
//go:embed strip.go strip_amd64.go strip_amd64.s strip_other.go table.go
var Source embed.FS
