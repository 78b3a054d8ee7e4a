package dist

import (
	"fmt"
	"slices"
	"testing"

	"qusim/internal/ckpt"
	"qusim/internal/kernels"
	"qusim/internal/mpi"
	"qusim/internal/schedule"
	"qusim/internal/statevec"
)

// TestSinglePrecisionRanks: RunAt[complex64] on four ranks ends within
// verify's default F32Tol of Run, in as many communication steps and half
// the bytes. One rank runs the same four-rank plan on the whole state, a swap
// being a local bit swap, bit for bit what the whole-vector executor of
// Plan.Run computes at either precision.
func TestSinglePrecisionRanks(t *testing.T) {
	const f32Tol = 5e-4
	c := supremacy(12, 10, 7, true)
	plan, err := schedule.Build(c, schedule.DefaultOptions(10))
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Ranks: 4, Init: InitUniform, GatherState: true}
	wide, err := Run(plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := RunAt[complex64](plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := kernels.MaxDiff(narrow.Amplitudes, wide.Amplitudes); d > f32Tol {
		t.Errorf("complex64 ranks end %.2e from complex128 ones, want ≤ %.0e", d, f32Tol)
	}
	if narrow.CommSteps != wide.CommSteps || 2*narrow.CommBytes != wide.CommBytes {
		t.Errorf("complex64: %d steps, %d bytes; complex128: %d steps, %d bytes — want equal steps, half the bytes",
			narrow.CommSteps, narrow.CommBytes, wide.CommSteps, wide.CommBytes)
	}

	opts.Ranks = 1
	one, err := Run(plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	v := statevec.NewUniform(c.N)
	if err := plan.Run(v); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(one.Amplitudes, v.Amps) || one.CommBytes != 0 {
		t.Errorf("one complex128 rank differs from Plan.Run or communicated %d bytes", one.CommBytes)
	}
	one, err = RunAt[complex64](plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	sh := schedule.Shard[complex64]{Amps: statevec.Prepare[complex64](InitUniform, c.N).Amps, L: c.N}
	if err := sh.Run(plan, 0); err != nil {
		t.Fatal(err)
	}
	for i, a := range sh.Amps {
		if one.Amplitudes[i] != complex128(a) {
			t.Fatalf("one complex64 rank: amplitude %d is %v, the whole-vector executor's %v", i, one.Amplitudes[i], a)
		}
	}
}

// singlePrecisionPlan is a 10-qubit plan for four ranks (l = 8) whose
// stages close with global-to-local swaps, so its runs exchange and
// snapshot between them.
func singlePrecisionPlan(t *testing.T) *schedule.Plan {
	t.Helper()
	plan, err := schedule.Build(supremacy(10, 40, 3, false), schedule.DefaultOptions(8))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Stats.Swaps == 0 {
		t.Fatal("the plan never swaps: nothing would be exchanged")
	}
	return plan
}

// TestSinglePrecisionRecoveryAtEveryFault: a checkpointed complex64 run on
// four ranks, killed at every collective in turn and then corrupted at every
// exchange in turn, restarts from its complex64 snapshots and ends bitwise
// on the clean complex64 run.
func TestSinglePrecisionRecoveryAtEveryFault(t *testing.T) {
	plan := singlePrecisionPlan(t)
	clean, err := RunAt[complex64](plan, Options{Ranks: 4, Init: InitUniform, GatherState: true})
	if err != nil {
		t.Fatal(err)
	}
	// run runs the plan with fp armed and reports whether its fault fired.
	run := func(name string, fp *mpi.FaultPlan, fired func() bool) bool {
		res, err := RunAt[complex64](plan, Options{Ranks: 4, Init: InitUniform, GatherState: true,
			Faults: fp, Checkpoint: &ckpt.Policy{Dir: t.TempDir()}})
		if err != nil {
			t.Fatalf("%s: not recovered: %v", name, err)
		}
		if !fired() {
			return false
		}
		if res.Restarts == 0 {
			t.Errorf("%s: the fault fired, but nothing restarted", name)
		}
		if !slices.Equal(res.Amplitudes, clean.Amplitudes) {
			t.Errorf("%s: the recovered run differs from the clean one", name)
		}
		return true
	}
	crashes, corruptions := 0, 0
	for k := 0; k < 512; k++ {
		crash := &mpi.CrashFault{Rank: k % 4, Collective: k}
		if !run(fmt.Sprintf("crash at collective %d", k), &mpi.FaultPlan{Crash: crash}, crash.Fired) {
			break
		}
		crashes++
	}
	for e := 0; e < clean.CommSteps; e++ {
		corrupt := &mpi.CorruptFault{Rank: e % 4, Exchange: e}
		if !run(fmt.Sprintf("corruption of exchange %d", e), &mpi.FaultPlan{Corrupt: corrupt}, corrupt.Fired) {
			t.Fatalf("exchange %d of %d was never corrupted", e, clean.CommSteps)
		}
		corruptions++
	}
	t.Logf("%d crash points, %d corruption points", crashes, corruptions)
	if crashes == 0 || corruptions == 0 {
		t.Fatalf("%d crash points and %d corruption points: the sweep tested nothing", crashes, corruptions)
	}
}

// TestSinglePrecisionResumeOfFinishedRun: resuming a finished complex64 run
// from its directory restores its newest snapshot and prints the same norm
// and entropy, on the same amplitudes.
func TestSinglePrecisionResumeOfFinishedRun(t *testing.T) {
	plan := singlePrecisionPlan(t)
	opts := Options{Ranks: 4, Init: InitUniform, GatherState: true, Checkpoint: &ckpt.Policy{Dir: t.TempDir()}}
	first, err := RunAt[complex64](plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Resume = true
	resumed, err := RunAt[complex64](plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.CheckpointsWritten == 0 || resumed.CheckpointsRestored != 1 {
		t.Fatalf("%d snapshots written, %d restored; want some and 1", first.CheckpointsWritten, resumed.CheckpointsRestored)
	}
	if resumed.Norm != first.Norm || resumed.Entropy != first.Entropy || !slices.Equal(resumed.Amplitudes, first.Amplitudes) {
		t.Errorf("resumed: norm %v entropy %v; finished: norm %v entropy %v", resumed.Norm, resumed.Entropy, first.Norm, first.Entropy)
	}
}

// TestSnapshotPrecisionsNeverCross: the snapshots a run of one plan leaves
// at one precision are another run's to the other precision: resuming there
// restores none of them and starts from the initial state.
func TestSnapshotPrecisionsNeverCross(t *testing.T) {
	plan := singlePrecisionPlan(t)
	for _, tc := range []struct {
		name         string
		write, other func(*schedule.Plan, Options) (*Result, error)
	}{
		{"f64 then f32", Run, RunAt[complex64]},
		{"f32 then f64", RunAt[complex64], Run},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{Ranks: 4, Init: InitUniform, GatherState: true}
			clean, err := tc.other(plan, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Checkpoint = &ckpt.Policy{Dir: t.TempDir(), Keep: 100}
			if res, err := tc.write(plan, opts); err != nil || res.CheckpointsWritten == 0 {
				t.Fatalf("the writing run: %v, %+v", err, res)
			}
			opts.Resume = true
			res, err := tc.other(plan, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.CheckpointsRestored != 0 || !slices.Equal(res.Amplitudes, clean.Amplitudes) {
				t.Errorf("restored %d snapshots of the other precision, or ended elsewhere than its clean run", res.CheckpointsRestored)
			}
		})
	}
}
