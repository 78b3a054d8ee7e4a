// Package staleignore is the fixture for the -strict-ignores audit: one
// directive that still suppresses a live diagnostic, and one whose
// diagnostic stopped firing — the stale one the audit must surface.
// Expectations live in TestStrictIgnores (stale reports land on the
// directive lines themselves).
package staleignore

import (
	"os"

	"qusim/internal/fsio"
)

// fs puts this package on the fsio seam so the fsops analyzer applies.
var fs fsio.FS = fsio.OS{}

// usedDirective: the suppression below still earns its keep — os.ReadFile
// in a seam package is exactly what fsops flags.
func usedDirective(name string) ([]byte, error) {
	//qlint:ignore fsops fixture: exercising a live suppression
	return os.ReadFile(name)
}

// staleDirective: the os call this directive once covered is gone; the
// suppression is dead weight and -strict-ignores must say so.
func staleDirective(name string) (fsio.FS, string) {
	//qlint:ignore fsops fixture: the call this once covered is gone
	return fs, name
}

// The fixture's functions are roots, so deadcode has nothing to report here.
var _ = []any{usedDirective, staleDirective}
