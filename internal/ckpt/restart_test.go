package ckpt

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"qusim/internal/fsio"
	"qusim/internal/kernels"
)

// TestRecoveryLoopRestartsRecoverableOnly: Restart runs the attempt once as
// resume asks and then, resuming, after each failure a recoverable class
// names, handing it that failure, a writer of its own and the newest
// snapshot; any other error ends the loop at once, as it is.
func TestRecoveryLoopRestartsRecoverableOnly(t *testing.T) {
	other := errors.New("not recoverable")
	meta := Meta{PlanHash: "restart-test", N: 1, L: 1, Ranks: 1}
	for _, tc := range []struct {
		name     string
		resume   bool
		fails    []error // the errors of the attempts before the last, which succeeds
		restarts int
		wantErr  error
	}{
		{"clean", false, nil, 0, nil},
		{"resumed", true, nil, 0, nil},
		{"two-windows", false, []error{fsio.ErrTransient, fsio.ErrNoSpace}, 2, nil},
		{"other", false, []error{other}, 0, other},
		{"other-after-one", true, []error{fsio.ErrNoSpace, other}, 1, other},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pol := &Policy{Dir: t.TempDir()}
			snap := NewWriter(pol, meta, nil).Snapshot(3)
			if err := snap.Tee(0, kernels.AmpBytes([]complex128{1, 0})); err != nil || snap.Commit() != nil {
				t.Fatalf("committing the snapshot to resume from: %v", err)
			}
			var writers []*Writer
			restarts, err := pol.Restart(meta, nil, tc.resume, func(w *Writer, man *Manifest, failed error) error {
				n, wantFailed := len(writers), error(nil)
				if n > 0 {
					wantFailed = tc.fails[n-1]
				}
				if resume := tc.resume || n > 0; (man != nil) != resume || man != nil && man.NextStage != 3 {
					t.Errorf("attempt %d resumes from %+v; want the stage-3 snapshot: %v", n, man, resume)
				}
				if failed != wantFailed || slices.Contains(writers, w) {
					t.Errorf("attempt %d restarts after %v, want %v, on a writer of its own: %v", n, failed, wantFailed, !slices.Contains(writers, w))
				}
				if writers = append(writers, w); n < len(tc.fails) {
					return tc.fails[n]
				}
				return nil
			}, fsio.IsTransient, fsio.IsNoSpace)
			if restarts != tc.restarts || err != tc.wantErr {
				t.Errorf("restarts %d, err %v; want %d and %v", restarts, err, tc.restarts, tc.wantErr)
			}
		})
	}
}

// TestRecoveryLoopGivesUpClassified: a failure no restart clears ends the
// loop after MaxRestarts restarts with an error of its class; with no
// recoverable class, or no policy, the attempt runs once.
func TestRecoveryLoopGivesUpClassified(t *testing.T) {
	pol := &Policy{Dir: t.TempDir()}
	attempts := 0
	restarts, err := pol.Restart(Meta{}, nil, false, func(*Writer, *Manifest, error) error {
		attempts++
		return fmt.Errorf("read: %w", fsio.ErrTransient)
	}, fsio.IsTransient)
	if restarts != MaxRestarts || attempts != MaxRestarts+1 || !fsio.IsTransient(err) {
		t.Errorf("%d restarts in %d attempts, err %v; want %d, %d and a transient error", restarts, attempts, err, MaxRestarts, MaxRestarts+1)
	}
	for _, tc := range []struct {
		name    string
		pol     *Policy
		classes []func(error) bool
	}{
		{"no class", pol, nil},
		{"no policy", nil, []func(error) bool{fsio.IsTransient}},
	} {
		attempts = 0
		restarts, err := tc.pol.Restart(Meta{}, nil, true, func(w *Writer, _ *Manifest, _ error) error {
			attempts++
			if (w == nil) != (tc.pol == nil) {
				t.Errorf("%s: writer %v", tc.name, w)
			}
			return fsio.ErrTransient
		}, tc.classes...)
		if restarts != 0 || attempts != 1 || err != fsio.ErrTransient {
			t.Errorf("%s: %d restarts in %d attempts, err %v; want 0, 1 and the attempt's error", tc.name, restarts, attempts, err)
		}
	}
}
