package globalcleanup

import (
	"testing"

	"qusim/internal/par"
)

// TestLeaksWorkerCount mutates the pool size and walks away: every test
// that runs after it inherits the two-worker pool.
func TestLeaksWorkerCount(t *testing.T) {
	par.SetWorkers(2) // want `globalcleanup: par\.SetWorkers mutates process-global state without a t\.Cleanup/defer restore in TestLeaksWorkerCount`
	t.Log("pool resized for the rest of the binary")
}

// TestCleanupMissesSetter registers a Cleanup, but it restores a different
// global than the one mutated — still a leak.
func TestCleanupMissesSetter(t *testing.T) {
	par.SetTelemetry(nil)
	par.SetWorkers(2) // want `globalcleanup: par\.SetWorkers mutates process-global state but no t\.Cleanup/defer in TestCleanupMissesSetter restores it`
	t.Cleanup(func() { par.SetTelemetry(nil) })
}

// TestRestoresViaCleanup is the canonical pattern: mutate, then register
// the restoring call. Nothing to flag.
func TestRestoresViaCleanup(t *testing.T) {
	old := par.SetWorkers(2)
	t.Cleanup(func() { par.SetWorkers(old) })
}

// TestRestoresViaDefer restores with a defer instead: equally fine.
func TestRestoresViaDefer(t *testing.T) {
	old := par.SetWorkers(2)
	defer par.SetWorkers(old)
	par.SetTelemetry(nil)
	defer par.SetTelemetry(nil)
}

// TestSuppressed exercises the suppression path for a test whose entire
// point is the leaked value.
func TestSuppressed(t *testing.T) {
	//qlint:ignore globalcleanup fixture: the binary-wide worker count is the property under test
	par.SetWorkers(3)
}

// helperNotATest proves plain test-file helpers are held to the same rule.
func helperNotATest() {
	par.SetWorkers(4) // want `globalcleanup: par\.SetWorkers mutates process-global state without a t\.Cleanup/defer restore in helperNotATest`
}
