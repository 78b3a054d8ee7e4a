package f32vec

import (
	"math"
	"math/cmplx"
	"runtime"
	"testing"
	"unsafe"

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
	s := Prepare(statevec.StartUniform, n)
	if err := s.RunPlan(plan); err != nil {
		t.Fatal(err)
	}
	// RunPlan is the shared applier on one whole-vector complex64 shard, bit
	// for bit (schedule's exec_test holds that shard to sharded execution).
	sh := schedule.Shard[complex64]{Amps: Prepare(statevec.StartUniform, n).Amps, L: n}
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

// TestRunPlanNeverAllocatesScratch pins the memory discipline of the shared
// permutation path: transpositions, swaps and multi-cycle permutations all
// run in the state's own 2^n amplitudes — the slice RunPlan leaves in Amps
// is the one it found there, and the bytes allocated meanwhile (lookup
// tables, the compiled program) stay far below a second vector.
func TestRunPlanNeverAllocatesScratch(t *testing.T) {
	const n = 18
	v := Prepare(statevec.StartUniform, n)
	for i := range v.Amps {
		v.Amps[i] = complex(float32(i), 0)
	}
	plan := &schedule.Plan{N: n, L: 16, Ops: []schedule.Op{
		{Kind: schedule.OpLocalPerm, Perm: []int{0, 4, 2, 3, 1, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}},
		{Kind: schedule.OpLocalPerm, Perm: []int{1, 2, 0, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15, 14}},
		{Kind: schedule.OpSwap, LocalPos: []int{14, 15}, GlobalPos: []int{16, 17}},
	}}
	before := &v.Amps[0]
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := v.RunPlan(plan); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	if &v.Amps[0] != before {
		t.Error("RunPlan left the state in another vector")
	}
	if got, state := m1.TotalAlloc-m0.TotalAlloc, uint64(8<<n); got >= state/4 {
		t.Errorf("RunPlan allocated %d bytes beside a %d-byte state", got, state)
	}
	// Index bit p went to (1 4) then (0 1 2)(14 15) then (14 16)(15 17).
	to := []int{1, 4, 0, 3, 2, 5, 6, 7, 8, 9, 10, 11, 12, 13, 17, 16, 14, 15}
	for i := 0; i < 1<<n; i += 997 {
		j := 0
		for p, q := range to {
			j |= (i >> p & 1) << q
		}
		if v.Amps[j] != complex(float32(i), 0) {
			t.Fatalf("amplitude %d not found at %d", i, j)
		}
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
	if unsafe.Sizeof(d.Amps[0])*uintptr(len(d.Amps)) != 2*unsafe.Sizeof(s.Amps[0])*uintptr(len(s.Amps)) {
		t.Errorf("memory ratio is not 2x")
	}
}
