// Package orphan is badpkg's internal package that no program reaches:
// deadcode reports its one function.
package orphan

// Orphaned has no caller.
func Orphaned() int { return 1 }
