package oocvec

import (
	"fmt"
	"os"
	"sync/atomic"
	"testing"

	"qusim/internal/ckpt"
	"qusim/internal/schedule"
	"qusim/internal/statevec"
)

// oocAmps runs the plan (optionally checkpointed) and returns the final
// amplitudes.
func oocAmps(t *testing.T, n, l int, run func(v *Vector) error) []complex128 {
	t.Helper()
	v, err := NewUniform(n, l, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if err := run(v); err != nil {
		t.Fatal(err)
	}
	amps, err := v.Amplitudes()
	if err != nil {
		t.Fatal(err)
	}
	return amps
}

// TestTempFilesRemovedOnInitFailure: Create writes nothing, so the state
// file's first writes are its first stage's, and that is where the removal
// guarantee is held: a run whose first stage fails on a write — at any
// chunk, or on any call — leaves the directory empty once the vector is
// closed, from either start state.
func TestTempFilesRemovedOnInitFailure(t *testing.T) {
	dir := t.TempDir()
	assertEmpty := func(when string) {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 0 {
			names := make([]string, len(entries))
			for i, e := range entries {
				names[i] = e.Name()
			}
			t.Fatalf("%s leaked temp files: %v", when, names)
		}
	}
	const n, l = 8, 6
	_, plan := buildPlan(t, n, l, 8, 1)
	fs := &faultFS{}
	// failRun creates a vector, runs plan on it with fail armed and closes
	// it, and fails the test unless Create wrote nothing and the run failed.
	failRun := func(start statevec.Start, when string, fail func(write bool, off int64, n int) error) {
		t.Helper()
		w0 := fs.written.Load()
		v, err := Create(fs, n, l, dir, start)
		if err != nil {
			t.Fatal(err)
		}
		if got := fs.written.Load() - w0; got != 0 {
			t.Errorf("%s: Create wrote %d bytes, want none", when, got)
		}
		fs.arm(fail)
		err = v.Run(plan)
		fs.arm(nil)
		v.Close()
		if err == nil {
			t.Fatalf("%s: the run survived its injected failure", when)
		}
		assertEmpty(when)
	}

	const chunkBytes = ampBytes << l
	for _, failAt := range []int64{0, 1, 3} {
		failRun(statevec.StartZero, fmt.Sprintf("StartZero(failAt=%d)", failAt), func(write bool, off int64, n int) error {
			if write && off == failAt*chunkBytes {
				return fmt.Errorf("injected write failure at chunk %d", failAt)
			}
			return nil
		})
	}
	// The first stage reads nothing and writes each of the 4 chunks once,
	// so a failure counted in calls lands on the second and on the last.
	for _, failCall := range []int{2, 4} {
		var calls atomic.Int32
		failRun(statevec.StartUniform, fmt.Sprintf("StartUniform(failCall=%d)", failCall), func(write bool, off int64, n int) error {
			if c := calls.Add(1); write && int(c) == failCall {
				return fmt.Errorf("injected write failure on call %d", c)
			}
			return nil
		})
	}
}

func TestCheckpointRestoreRoundTrip(t *testing.T) {
	n, l := 10, 7
	_, plan := buildPlan(t, n, l, 12, 3)
	v, err := NewUniform(n, l, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if err := v.Run(plan); err != nil {
		t.Fatal(err)
	}
	want, err := v.Amplitudes()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	if err := v.Checkpoint(dir, plan, plan.Stages(), 2); err != nil {
		t.Fatal(err)
	}
	man, err := ckpt.FindRestorable(dir, v.snapshotMeta(plan))
	if err != nil {
		t.Fatal(err)
	}
	if man == nil {
		t.Fatal("committed snapshot not found")
	}

	// Restore into a DIFFERENT chunk geometry: the snapshot is one logical
	// shard, independent of the writer's in-memory budget.
	v2, err := New(n, 5, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	if err := v2.Restore(dir, man); err != nil {
		t.Fatal(err)
	}
	got, err := v2.Amplitudes()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("amplitude %d differs after restore: %v vs %v", i, want[i], got[i])
		}
	}
}

func TestRunCheckpointedResumesBitwise(t *testing.T) {
	n, l := 10, 7
	_, plan := buildPlan(t, n, l, 16, 4)
	if plan.Stages() < 2 {
		t.Fatalf("plan has %d stages; the scenario needs at least 2", plan.Stages())
	}
	clean := oocAmps(t, n, l, func(v *Vector) error { return v.Run(plan) })

	// First process: run to completion with checkpoints.
	dir := t.TempDir()
	pol := &ckpt.Policy{Dir: dir}
	first := oocAmps(t, n, l, func(v *Vector) error {
		restored, written, err := v.RunCheckpointed(plan, pol, false)
		if err != nil {
			return err
		}
		if restored != -1 {
			t.Errorf("fresh run restored from stage %d", restored)
		}
		if written == 0 {
			t.Error("no snapshots committed")
		}
		return nil
	})
	for i := range clean {
		if clean[i] != first[i] {
			t.Fatalf("checkpointed run diverged at amplitude %d", i)
		}
	}

	// Second process: resume from the newest snapshot (taken before the
	// final stage) and finish — bitwise identical again.
	resumed := oocAmps(t, n, l, func(v *Vector) error {
		restored, _, err := v.RunCheckpointed(plan, pol, true)
		if err != nil {
			return err
		}
		if restored < 0 {
			t.Error("resume found no snapshot")
		}
		return nil
	})
	for i := range clean {
		if clean[i] != resumed[i] {
			t.Fatalf("resumed run diverged at amplitude %d", i)
		}
	}
}

// TestCheckpointNotSharedAcrossCostTables: the same circuit scheduled under
// two cost tables is two plans with two fingerprints, so a snapshot taken
// under one is never resumed into the other — the -resume run starts over
// and still lands bitwise on the clean result.
func TestCheckpointNotSharedAcrossCostTables(t *testing.T) {
	n, l := 10, 7
	circ, measured := buildPlan(t, n, l, 16, 4)
	opts := schedule.DefaultOptions(l)
	opts.Costs = schedule.PaperCosts()
	paper, err := schedule.Build(circ, opts)
	if err != nil {
		t.Fatal(err)
	}
	if measured.Fingerprint() == paper.Fingerprint() {
		t.Fatal("measured- and paper-table plans share a fingerprint; the scenario needs two plans")
	}
	if measured.Stages() < 2 || paper.Stages() < 2 {
		t.Fatalf("plans have %d and %d stages; the scenario needs a snapshot from each", measured.Stages(), paper.Stages())
	}
	dir := t.TempDir()
	pol := &ckpt.Policy{Dir: dir}
	oocAmps(t, n, l, func(v *Vector) error {
		_, written, err := v.RunCheckpointed(measured, pol, false)
		if written == 0 {
			t.Error("no snapshot committed under the measured table")
		}
		if man, ferr := ckpt.FindRestorable(dir, v.snapshotMeta(paper)); ferr != nil || man != nil {
			t.Errorf("FindRestorable under the paper table = %v, %v; want no snapshot", man, ferr)
		}
		return err
	})
	clean := oocAmps(t, n, l, func(v *Vector) error { return v.Run(paper) })
	rerun := oocAmps(t, n, l, func(v *Vector) error {
		restored, _, err := v.RunCheckpointed(paper, pol, true)
		if restored != -1 {
			t.Errorf("paper-table run resumed from the measured table's stage-%d snapshot", restored)
		}
		return err
	})
	for i := range clean {
		if clean[i] != rerun[i] {
			t.Fatalf("rerun from scratch diverged at amplitude %d", i)
		}
	}
}
