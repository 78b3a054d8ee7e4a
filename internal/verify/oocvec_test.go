package verify

import (
	"math"
	"testing"

	"qusim/internal/circuit"
	"qusim/internal/schedule"
	"qusim/internal/statevec"
)

// scheduledAmps executes plan on an in-memory state with the kernels Auto
// selects — per-amplitude, the exact arithmetic the out-of-core engine
// performs chunk by chunk — and returns logical-order amplitudes.
func scheduledAmps(t *testing.T, c *circuit.Circuit, plan *schedule.Plan) []complex128 {
	t.Helper()
	v := statevec.New(c.N)
	if err := plan.Run(v); err != nil {
		t.Fatal(err)
	}
	return unpermute(plan, v.Amps)
}

// TestOutOfCoreBitwiseDifferential pins paged execution — without
// read-ahead and at several prefetch depths — bitwise against the in-memory scheduled run of
// the same plan: chunking the state file and pipelining its I/O must not
// change a single bit of any amplitude.
func TestOutOfCoreBitwiseDifferential(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		c := Random(RandomOptions{Qubits: 10, Gates: 60, Seed: seed, DenseEntanglers: true})
		plan, err := schedule.Build(c, scheduleOptions(c.N-3, schedule.CostTable{}))
		if err != nil {
			t.Fatal(err)
		}
		want := scheduledAmps(t, c, plan)
		for _, depth := range []int{0, 1, 2, 4, 8} {
			got, err := OutOfCore(3, depth).Run(c)
			if err != nil {
				t.Fatalf("seed %d depth %d: %v", seed, depth, err)
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("seed %d depth %d: amplitude %d differs bitwise: %v vs %v",
						seed, depth, i, want[i], got[i])
				}
			}
		}
	}
}

// TestOutOfCoreEnrolledInMatrix guards the harness wiring: the paged
// backend (with and without read-ahead) must be part of the differential
// matrix so every qverify run cross-checks it.
func TestOutOfCoreEnrolledInMatrix(t *testing.T) {
	for _, quick := range []bool{true, false} {
		_, backends := Matrix(quick)
		depth0, prefetch := false, false
		for _, b := range backends {
			switch b.Name() {
			case "oocvec/g2-prefetch0":
				depth0 = true
			case "oocvec/g2-prefetch3":
				prefetch = true
			}
		}
		if !depth0 || !prefetch {
			t.Errorf("quick=%v matrix missing ooc backends (prefetch0=%v prefetch3=%v)",
				quick, depth0, prefetch)
		}
	}
}

// TestOutOfCoreMetamorphicParameterSweep is the QAOA/VQE re-run property:
// executing a circuit, then re-executing it with perturbed gate angles,
// must (a) keep the plan structure — the plans differ only in gate values —
// and (b) still agree bitwise with the in-memory run of each perturbed
// instance.
func TestOutOfCoreMetamorphicParameterSweep(t *testing.T) {
	mk := func(theta float64) *circuit.Circuit {
		c := circuit.NewCircuit(9)
		for q := 0; q < c.N; q++ {
			c.Append(circuit.NewH(q))
		}
		for layer := 0; layer < 2; layer++ {
			for q := 0; q+1 < c.N; q++ {
				c.Append(circuit.NewCPhase(q, q+1, theta*float64(q+1)))
			}
			for q := 0; q < c.N; q++ {
				c.Append(circuit.NewRz(q, theta+math.Pi/float64(layer+2)))
				c.Append(circuit.NewXHalf(q))
			}
		}
		return c
	}

	backend := OutOfCore(3, 2)
	var lastStruct string
	for i, theta := range []float64{0.7, 0.7 + 1e-4, 0.7 - 1e-4} {
		c := mk(theta)
		plan, err := schedule.Build(c, scheduleOptions(c.N-3, schedule.CostTable{}))
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && plan.StructureFingerprint() != lastStruct {
			t.Fatal("angle perturbation changed the plan structure fingerprint")
		}
		lastStruct = plan.StructureFingerprint()

		want := scheduledAmps(t, c, plan)
		got, err := backend.Run(c)
		if err != nil {
			t.Fatal(err)
		}
		for b := range want {
			if want[b] != got[b] {
				t.Fatalf("theta %g: amplitude %d differs bitwise", theta, b)
			}
		}
	}
}
