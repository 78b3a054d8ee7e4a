// Package badpkg is the known-bad fixture for qlint's golden-output test:
// each section trips a different analyzer, and the expected rendering —
// path:line:col: analyzer: message, sorted, module-root-relative — is
// pinned byte-for-byte in testdata/golden.txt.
package badpkg

import (
	"os"

	"qusim/internal/ckpt"
	"qusim/internal/telemetry"
)

// policy arms the atomicrename rules by importing internal/ckpt.
func policy(dir string) *ckpt.Policy { return &ckpt.Policy{Dir: dir} }

// commitManifest writes the manifest under its final name directly.
func commitManifest(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

// enabled compares a handle against telemetry.Disabled.
func enabled(tel *telemetry.Telemetry) bool { return tel != telemetry.Disabled }

// sum allocates inside its hot loop.
//
//qusim:hot
func sum(xs []int) int {
	total := 0
	for _, x := range xs {
		buf := make([]int, 1)
		buf[0] = x
		total += buf[0]
	}
	return total
}

// reasonlessDirective shows a directive that fails to suppress: the
// missing reason is itself reported, and the write stays flagged.
func reasonlessDirective(path string, data []byte) error {
	//qlint:ignore atomicrename
	return os.WriteFile(path, data, 0o644)
}
