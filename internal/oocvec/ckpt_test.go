package oocvec

import (
	"fmt"
	"os"
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

func TestTempFilesRemovedOnInitFailure(t *testing.T) {
	// Regression: an injected write failure during chunk initialization
	// must leave the directory empty — no leaked state file.
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
	fs := &faultFS{}
	const chunkBytes = ampBytes << 6

	for _, failAt := range []int64{0, 1, 3} {
		fs.arm(func(write bool, off int64, n int) error {
			if write && off == failAt*chunkBytes {
				return fmt.Errorf("injected write failure at chunk %d", failAt)
			}
			return nil
		})
		if _, err := Create(fs, 8, 6, dir, statevec.StartZero); err == nil {
			t.Fatalf("New survived injected failure at chunk %d", failAt)
		}
		assertEmpty(fmt.Sprintf("New(failAt=%d)", failAt))
	}

	// NewUniform writes the file once, like New: 4 chunk writes in all, so
	// a failure counted in calls lands on the second and on the last.
	for _, failCall := range []int{2, 4} {
		calls := 0
		fs.arm(func(write bool, off int64, n int) error {
			if calls++; write && calls == failCall {
				return fmt.Errorf("injected write failure on call %d", calls)
			}
			return nil
		})
		if _, err := Create(fs, 8, 6, dir, statevec.StartUniform); err == nil {
			t.Fatalf("NewUniform survived injected failure on call %d", failCall)
		}
		assertEmpty(fmt.Sprintf("NewUniform(failCall=%d)", failCall))
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
