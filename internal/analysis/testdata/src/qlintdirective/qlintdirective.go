// Package qlintdirective is the corpus for the directive parser itself:
// malformed //qlint:ignore comments must surface as "qlint" diagnostics
// instead of silently suppressing nothing. The expectations live in
// TestDirectiveDiagnostics (the diagnostics land on the comment lines, so
// end-of-line want comments cannot express them).
package qlintdirective

import "qusim/internal/par"

// missingEverything omits both the analyzer name and the reason.
func missingEverything() {
	//qlint:ignore
	par.SetWorkers(1)
}

// unknownAnalyzer names a check that does not exist.
func unknownAnalyzer() {
	//qlint:ignore gofmtcheck some reason
	par.SetWorkers(1)
}

// missingReason names a real analyzer but gives no justification; the
// suppression must not take effect.
func missingReason() {
	//qlint:ignore globalcleanup
	par.SetWorkers(1)
}

// wellFormed is the control: a correct directive parses without noise.
func wellFormed() {
	//qlint:ignore globalcleanup fixture: not a test file, nothing to suppress anyway
	par.SetWorkers(1)
}

// multiLineReason: the reason must live on the directive's own line — a
// continuation comment line underneath does not attach, so this is the
// missing-reason diagnostic, not a suppression with a two-line reason.
func multiLineReason() {
	//qlint:ignore globalcleanup
	// this next line is a separate comment, not the directive's reason
	par.SetWorkers(1)
}

// blockComment: only //-style directives are recognized; a block comment
// spelling the same text is inert — neither a suppression nor a finding.
func blockComment() {
	/* qlint:ignore globalcleanup block comments are not directives */
	par.SetWorkers(1)
}

// The fixture's functions are roots, so deadcode has nothing to report here.
var _ = []any{missingEverything, unknownAnalyzer, missingReason, wellFormed, multiLineReason, blockComment}
