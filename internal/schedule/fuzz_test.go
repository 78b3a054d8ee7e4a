package schedule

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"

	"qusim/internal/circuit"
	"qusim/internal/kernels"
	"qusim/internal/statevec"
)

// fuzzCosts draws a cost table from six fuzz bytes: each dense price is a
// step of b/64 − 1/4 ∈ [−0.25, 3.75) over the previous k, floored at 0.25,
// and the diagonal's is 1/4 + b/64. The draw covers flat tables (every
// step 16: the paper's), knees at every k, and non-monotone tables no
// kernel suite would produce.
func fuzzCosts(steps [6]uint8) CostTable {
	t := CostTable{Diag: 0.25 + float64(steps[5])/64}
	price := 1.0
	for k := range t.Dense {
		t.Dense[k] = price
		price += float64(steps[k])/64 - 0.25
		if price < 0.25 {
			price = 0.25
		}
	}
	return t
}

// FuzzScheduleEquivalence fuzzes the full scheduling pipeline — cost-priced
// clustering, swap insertion, boundary adjustment, heuristic mapping — and
// the per-gate planner of [19] against naive gate-by-gate simulation. Any
// input the fuzzer finds where a plan deviates from (1⊗…⊗U⊗…⊗1)|Ψ⟩
// semantics by more than 1e-9 is a scheduler bug; the corpus entry is the
// reproducer. A gate count below 1 schedules QFT(n) instead of a random
// circuit: its controlled phases on global qubits fold into wide diagonals.
//
// The plan's ops are then executed twice more on a state wide enough to have
// cache blocks (every position of an n ≤ 10 plan lies below the block width,
// so whatever separates two permutations is one run): through Shard.Run,
// block by block, and one Shard.Apply per op. The two must agree bit for bit,
// on a dense state and on a basis state the seed picks, and equal the ops
// applied one by one to the whole state.
func FuzzScheduleEquivalence(f *testing.F) {
	const wide = 17
	wideState := make([]complex128, 1<<wide)
	rng := rand.New(rand.NewSource(17))
	for i := range wideState {
		wideState[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	flat, knee2 := []byte{16, 16, 16, 16, 16, 48}, []byte{22, 136, 104, 255, 0, 48}
	f.Add(int64(1), 6, 30, 3, flat)
	f.Add(int64(2), 8, 48, 5, knee2)
	f.Add(int64(3), 10, 60, 7, flat)
	f.Add(int64(4), 4, 24, 2, knee2)
	f.Add(int64(5), 9, 40, 9, []byte{200, 0, 90, 3, 77, 1})
	f.Add(int64(0), 8, 0, 5, knee2)
	// Its one boundary still relabels: two transpositions before the swap.
	f.Add(int64(1), 10, 60, 7, flat)
	f.Fuzz(func(t *testing.T, seed int64, n, gates, l int, table []byte) {
		// Clamp the raw fuzz inputs into the supported envelope instead of
		// rejecting them, so every execution exercises the scheduler.
		if n < 2 {
			n = 2
		}
		if n > 10 {
			n = 2 + int(uint(n)%9)
		}
		if gates > 120 {
			gates = 1 + int(uint(gates)%120)
		}
		// Dense 2-qubit gates need two local bit positions, so l ≥ 2.
		if l < 2 || l > n {
			l = 2 + int(uint(l)%uint(n-1))
		}
		c := circuit.QFT(n)
		if gates >= 1 {
			c = circuit.RandomCircuit(n, gates, seed)
		}

		opts := DefaultOptions(l)
		if opts.KMax > l {
			opts.KMax = l
		}
		var steps [6]uint8
		copy(steps[:], table)
		opts.Costs = fuzzCosts(steps)
		plan, err := Build(c, opts)
		if err != nil {
			t.Fatalf("Build(n=%d gates=%d l=%d seed=%d costs=%v): %v", n, gates, l, seed, opts.Costs, err)
		}

		// equivalent holds a plan of circ to the circuit applied gate by gate.
		equivalent := func(plan *Plan, circ *circuit.Circuit, what string) {
			want := statevec.New(n)
			for _, g := range circ.Gates {
				want.Apply(g.Matrix(), g.Qubits...)
			}
			got := statevec.New(n)
			if err := plan.Run(got); err != nil {
				t.Fatalf("%s: Run(n=%d gates=%d l=%d seed=%d): %v", what, n, gates, plan.L, seed, err)
			}
			for b := 0; b < 1<<n; b++ {
				if d := cmplx.Abs(want.Amplitude(b) - got.Amplitude(plan.PermutedIndex(b))); d > 1e-9 {
					t.Fatalf("%s: n=%d gates=%d l=%d seed=%d costs=%v: amplitude %d deviates by %g\n%s",
						what, n, gates, plan.L, seed, opts.Costs, b, d, plan.Summary())
				}
			}
		}
		equivalent(plan, c, "Build")

		// The per-gate scheme of [19] as a plan, at every l with specialization
		// off and on: it refuses c exactly when a dense gate on two qubits
		// touches a global one, and runs the rest of c like any other plan.
		for l := 1; l <= n; l++ {
			runnable := circuit.NewCircuit(n)
			for _, g := range c.Gates {
				if g.K() == 1 || g.IsDiagonal() || slices.Max(g.Qubits) < l {
					runnable.Append(g)
				}
			}
			for _, spec := range []bool{false, true} {
				specialized := func(*circuit.Gate) bool { return spec }
				if _, err := PerGate(c, l, specialized); (err != nil) != (len(runnable.Gates) < len(c.Gates)) {
					t.Fatalf("PerGate(n=%d gates=%d l=%d seed=%d): error %v, %d of %d gates within the scheme",
						n, gates, l, seed, err, len(runnable.Gates), len(c.Gates))
				}
				perGate, err := PerGate(runnable, l, specialized)
				if err != nil {
					t.Fatalf("PerGate(n=%d gates=%d l=%d seed=%d) on the gates within the scheme: %v", n, gates, l, seed, err)
				}
				if err := perGate.validate(); err != nil {
					t.Fatalf("PerGate(n=%d gates=%d l=%d seed=%d): %v", n, gates, l, seed, err)
				}
				equivalent(perGate, runnable, fmt.Sprintf("PerGate(specialized=%v)", spec))
			}
		}

		// A basis state the seed picks is the sparse wide state: its passes
		// cover a populated prefix, where the dense state's cover the shard.
		sparseState := make([]complex128, 1<<wide)
		sparseState[uint64(seed)%(1<<wide)] = 1
		for _, start := range []struct {
			name  string
			state []complex128
		}{{"dense", wideState}, {"sparse", sparseState}} {
			blocked := Shard[complex128]{Amps: slices.Clone(start.state), L: wide}
			if err := blocked.Run(&Plan{N: wide, L: plan.L, Ops: plan.Ops}, 0); err != nil {
				t.Fatal(err)
			}
			perOp := Shard[complex128]{Amps: slices.Clone(start.state), L: wide}
			for i := range plan.Ops {
				op := &plan.Ops[i]
				if op.Kind != OpSwap {
					if err := perOp.Apply(op); err != nil {
						t.Fatal(err)
					}
				}
				for j := range op.LocalPos {
					kernels.SwapBits(perOp.Amps, op.LocalPos[j], op.GlobalPos[j])
				}
			}
			for i, a := range blocked.Amps {
				if b := perOp.Amps[i]; math.Float64bits(real(a)) != math.Float64bits(real(b)) || math.Float64bits(imag(a)) != math.Float64bits(imag(b)) {
					t.Fatalf("%s n=%d gates=%d l=%d seed=%d costs=%v: amplitude %d is %v block by block, %v op by op\n%s",
						start.name, n, gates, l, seed, opts.Costs, i, a, b, plan.Summary())
				}
			}
			// Against the ops applied to the whole state, where the zeros
			// beyond a prefix may turn −0: equal, not bitwise.
			ref := statevec.FromAmplitudes(slices.Clone(start.state))
			unrestricted(plan.Ops, ref)
			for i, a := range blocked.Amps {
				if b := ref.Amps[i]; a != b {
					t.Fatalf("%s n=%d gates=%d l=%d seed=%d costs=%v: amplitude %d is %v block by block, %v on the whole state\n%s",
						start.name, n, gates, l, seed, opts.Costs, i, a, b, plan.Summary())
				}
			}
		}
	})
}
