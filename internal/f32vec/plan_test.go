package f32vec

import (
	"math"
	"math/cmplx"
	"testing"

	"qusim/internal/circuit"
	"qusim/internal/schedule"
	"qusim/internal/statevec"
)

func TestRunPlanMatchesDoublePrecisionPlan(t *testing.T) {
	n := 12
	r, c := circuit.GridForQubits(n)
	circ := circuit.Supremacy(circuit.SupremacyOptions{
		Rows: r, Cols: c, Depth: 16, Seed: 13, SkipInitialH: true,
	})
	plan, err := schedule.Build(circ, schedule.DefaultOptions(8))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Stats.Swaps == 0 {
		t.Fatal("want a plan with swaps for this test")
	}
	d := statevec.NewUniform(n)
	if err := plan.Run(d); err != nil {
		t.Fatal(err)
	}
	s := NewUniform(n)
	if err := s.RunPlan(plan); err != nil {
		t.Fatal(err)
	}
	// RunPlan is the shared applier on one whole-vector complex64 shard, bit
	// for bit (schedule's exec_test holds that shard to sharded execution).
	sh := schedule.Shard[complex64]{Amps: NewUniform(n).Amps, L: n}
	if err := sh.Run(plan, 0); err != nil {
		t.Fatal(err)
	}
	for i := range sh.Amps {
		if math.Float32bits(real(sh.Amps[i])) != math.Float32bits(real(s.Amps[i])) ||
			math.Float32bits(imag(sh.Amps[i])) != math.Float32bits(imag(s.Amps[i])) {
			t.Fatalf("amplitude %d: RunPlan %v, Shard.Run %v", i, s.Amps[i], sh.Amps[i])
		}
	}
	var maxd float64
	for i := range d.Amps {
		if diff := cmplx.Abs(complex128(s.Amps[i]) - d.Amps[i]); diff > maxd {
			maxd = diff
		}
	}
	if maxd > 1e-4 {
		t.Errorf("single-precision plan execution deviates: %g", maxd)
	}
	if math.Abs(s.Norm()-1) > 1e-4 {
		t.Errorf("norm %v", s.Norm())
	}
}

// TestRunPlanAllocatesScratchOnlyToGather pins the memory discipline of the
// shared permutation path: a second vector exists only once a plan has
// gathered through a multi-cycle permutation — a single-node plan, or one
// whose permutations are lone transpositions, runs in the state's own 2^n
// amplitudes.
func TestRunPlanAllocatesScratchOnlyToGather(t *testing.T) {
	const n = 8
	v := NewUniform(n)
	inPlace := &schedule.Plan{N: n, L: 6, Ops: []schedule.Op{
		{Kind: schedule.OpLocalPerm, Perm: []int{0, 4, 2, 3, 1, 5}},
		{Kind: schedule.OpSwap, LocalPos: []int{4, 5}, GlobalPos: []int{6, 7}},
	}}
	if err := v.RunPlan(inPlace); err != nil {
		t.Fatal(err)
	}
	if v.scratch != nil {
		t.Fatal("a transposition and a swap allocated a second vector")
	}
	gather := &schedule.Plan{N: n, L: 6, Ops: []schedule.Op{
		{Kind: schedule.OpLocalPerm, Perm: []int{1, 2, 0, 3, 4, 5}},
	}}
	if err := v.RunPlan(gather); err != nil {
		t.Fatal(err)
	}
	if len(v.scratch) != len(v.Amps) {
		t.Fatalf("scratch has %d amplitudes after a 3-cycle, want %d kept for the next gather", len(v.scratch), len(v.Amps))
	}
}

func TestRunPlanValidatesQubits(t *testing.T) {
	circ := circuit.GHZ(6)
	plan, err := schedule.Build(circ, schedule.DefaultOptions(6))
	if err != nil {
		t.Fatal(err)
	}
	v := New(5)
	if err := v.RunPlan(plan); err == nil {
		t.Error("mismatched plan accepted")
	}
}

func TestMemoryAdvantageDocumented(t *testing.T) {
	// The whole point: same qubit count, half the bytes.
	n := 10
	d := statevec.New(n)
	s := New(n)
	if 16*len(d.Amps) != 2*BytesPerAmplitude*len(s.Amps) {
		t.Errorf("memory ratio is not 2x")
	}
}
