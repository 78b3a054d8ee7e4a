package schedule

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"qusim/internal/circuit"
	"qusim/internal/kernels"
	"qusim/internal/statevec"
)

// The populated prefix (exec.go): every pass of Shard.Exec covers only the
// leading amplitudes that can hold a nonzero one. Within the prefix a pass
// computes what a pass over the whole shard computes; beyond it the
// amplitudes stay +0 where a whole-shard pass may leave −0, so the results
// here are compared with ==, against ops applied one by one to the whole
// state through statevec's public methods.

// unrestricted applies ops to v one by one, each over the whole state: a
// cluster through ApplyDense, a diagonal through ApplyDiagonal, a local
// permutation (of the low locations; the rest stay) through PermuteBits, a
// swap through SwapBits.
func unrestricted[T statevec.Amp](ops []Op, v *statevec.State[T]) {
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case OpCluster:
			v.ApplyDense(op.Matrix, op.Positions...)
		case OpDiagonal:
			v.ApplyDiagonal(op.Diag, op.Positions...)
		case OpLocalPerm:
			perm := make([]int, v.N)
			for q := copy(perm, op.Perm); q < v.N; q++ {
				perm[q] = q
			}
			v.PermuteBits(perm)
		case OpSwap:
			for j := range op.LocalPos {
				v.SwapBits(op.LocalPos[j], op.GlobalPos[j])
			}
		}
	}
}

// requireEqual compares two states amplitude by amplitude with ==.
func requireEqual[T statevec.Amp](t *testing.T, what string, got, want []T) {
	t.Helper()
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: amplitude %d is %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestPassPrefixes pins the prefix every pass of a 5×4 depth-5 supremacy
// plan covers from |0…0⟩ (priced by the AVX2 price list, so the plan is the
// same under every kernel set): the first run stays inside one block, each
// cluster that reaches a higher position widens the prefix up to it, and
// the passes after the first cluster on position 19 cover everything. A
// shard of zeros makes the same passes over the same prefixes, and from the
// uniform state every pass is full.
func TestPassPrefixes(t *testing.T) {
	opts := DefaultOptions(20)
	opts.Costs = avx2Costs
	plan, err := Build(circuit.Supremacy(circuit.SupremacyOptions{Rows: 5, Cols: 4, Depth: 5, Seed: 1}), opts)
	if err != nil {
		t.Fatal(err)
	}
	sh := Shard[complex128]{Amps: kernels.NewAmps[complex128](1 << 20), L: 20}
	stages, err := sh.Stages(plan, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 1 {
		t.Fatalf("%d stages, want 1", len(stages))
	}
	prog := stages[0].Prog
	prefixes := func() []int {
		var got []int
		prog.passes(sh.populated(), sh.L, func(_, _, need int) { got = append(got, need) })
		return got
	}
	var observed int
	sh.Observe = func([]Op, time.Time, []time.Duration) { observed++ }
	want := []int{16, 17, 17, 18, 19, 20, 20, 20, 20}

	if got := prefixes(); !slices.Equal(got, want) {
		t.Errorf("a shard of zeros has passes over prefixes %v, want %v", got, want)
	}
	sh.Exec(prog)
	if observed != len(want) {
		t.Errorf("a shard of zeros made %d passes, want %d", observed, len(want))
	}
	requireEqual(t, "a shard of zeros", sh.Amps, make([]complex128, 1<<20))

	observed = 0
	sh.Amps[0] = 1
	if got := prefixes(); !slices.Equal(got, want) {
		t.Errorf("from |0…0⟩ the passes cover prefixes %v, want %v", got, want)
	}
	ref := statevec.New(20)
	unrestricted(plan.Ops, ref)
	sh.Exec(prog)
	if observed != len(want) {
		t.Errorf("Exec made %d passes, want %d", observed, len(want))
	}
	requireEqual(t, "from |0…0⟩", sh.Amps, ref.Amps)

	copy(sh.Amps, statevec.NewUniform(20).Amps)
	if got := prefixes(); len(got) != len(want) || slices.ContainsFunc(got, func(need int) bool { return need != 20 }) {
		t.Errorf("from the uniform state the passes cover prefixes %v, want %d of 20", got, len(want))
	}
}

// TestPrefixMatchesUnrestricted is the property: Shard.Run equals the ops
// applied one by one to the whole state, for plans of three circuit
// families at n = 18–20 with and without swaps, in both precisions, from
// |0…0⟩, a basis state above 2^17 (so above a block in either precision), a
// random state whose top half is zero, and a dense random state.
func TestPrefixMatchesUnrestricted(t *testing.T) {
	t.Run("complex128", testPrefixMatchesUnrestricted[complex128])
	t.Run("complex64", testPrefixMatchesUnrestricted[complex64])
}

func testPrefixMatchesUnrestricted[T statevec.Amp](t *testing.T) {
	circuits := []*circuit.Circuit{
		supremacy(18, 8, 3),
		circuit.QFT(19),
		circuit.RandomCircuit(20, 80, 5),
	}
	for _, c := range circuits {
		n := c.N
		rng := rand.New(rand.NewSource(int64(n)))
		random := func(half bool) []T {
			amps := make([]T, 1<<n)
			if half {
				amps = amps[:1<<(n-1)]
			}
			for i := range amps {
				amps[i] = T(complex(rng.NormFloat64(), rng.NormFloat64()))
			}
			return amps[:1<<n]
		}
		basis := func(b int) []T {
			amps := make([]T, 1<<n)
			amps[b] = 1
			return amps
		}
		states := map[string][]T{
			"|0…0⟩":            basis(0),
			"basis above 2^17": basis(1<<17 | 0x2c5),
			"top half zero":    random(true),
			"dense":            random(false),
		}
		for _, l := range []int{n, n - 2} {
			plan, err := Build(c, DefaultOptions(l))
			if err != nil {
				t.Fatal(err)
			}
			if (plan.Stats.Swaps > 0) != (l < n) {
				t.Fatalf("n=%d l=%d: %d swaps", n, l, plan.Stats.Swaps)
			}
			for name, state := range states {
				what := fmt.Sprintf("n=%d l=%d %s", n, l, name)
				sh := Shard[T]{Amps: slices.Clone(state), L: n}
				if err := sh.Run(plan, 0); err != nil {
					t.Fatal(err)
				}
				ref := statevec.FromAmplitudes(slices.Clone(state))
				unrestricted(plan.Ops, ref)
				requireEqual(t, what, sh.Amps, ref.Amps)
			}
		}
	}
}
