// Package cli holds the instance-specification logic shared by the command
// line tools (cmd/sssp, cmd/gengraph): parsing a generator spec or loading a
// DIMACS file, with uniform naming and errors. Factoring it here keeps the
// tools thin and makes the logic unit-testable.
//
// See DESIGN.md §3 ("System inventory") for how this package fits the system.
package cli
