package dist

import (
	"errors"
	"os"
	"slices"
	"testing"

	"qusim/internal/ckpt"
	"qusim/internal/kernels"
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

// TestSinglePrecisionRefusesCheckpoint: snapshot shards are complex128, so a
// complex64 run given a checkpoint policy returns ErrCheckpointPrecision
// before anything exists, the directory included.
func TestSinglePrecisionRefusesCheckpoint(t *testing.T) {
	plan, err := schedule.Build(supremacy(8, 4, 1, true), schedule.DefaultOptions(7))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir() + "/ck"
	_, err = RunAt[complex64](plan, Options{Ranks: 2, Checkpoint: &ckpt.Policy{Dir: dir, EveryStages: 1}, Resume: true})
	if !errors.Is(err, ErrCheckpointPrecision) {
		t.Errorf("err = %v, want ErrCheckpointPrecision", err)
	}
	if _, serr := os.Stat(dir); !os.IsNotExist(serr) {
		t.Errorf("the refused run made %s (stat: %v)", dir, serr)
	}
}
