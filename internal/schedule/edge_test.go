package schedule

import (
	"math/rand"
	"strings"
	"testing"

	"qusim/internal/circuit"
	"qusim/internal/gate"
	"qusim/internal/statevec"
)

func TestEmptyCircuit(t *testing.T) {
	c := circuit.NewCircuit(6)
	plan, err := Build(c, DefaultOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Ops) != 0 || plan.Stats.Swaps != 0 {
		t.Errorf("empty circuit produced %d ops, %d swaps", len(plan.Ops), plan.Stats.Swaps)
	}
	v := statevec.New(6)
	if err := plan.Run(v); err != nil {
		t.Fatal(err)
	}
	if v.Probability(0) != 1 {
		t.Error("empty plan changed the state")
	}
}

func TestSingleGateCircuit(t *testing.T) {
	c := circuit.NewCircuit(5)
	c.Append(circuit.NewH(4)) // on a qubit that starts global for l=3
	opts := DefaultOptions(3)
	opts.KMax = 2
	plan := assertPlanEquivalent(t, c, opts)
	if plan.Stats.Clusters != 1 {
		t.Errorf("single gate produced %d clusters", plan.Stats.Clusters)
	}
}

func TestAllDiagonalCircuitNeedsNoSwaps(t *testing.T) {
	// A circuit of only CZ and T gates is fully specialized: zero
	// communication regardless of layout.
	c := circuit.NewCircuit(8)
	for q := 0; q < 8; q++ {
		c.Append(circuit.NewT(q))
	}
	for q := 0; q < 7; q++ {
		c.Append(circuit.NewCZ(q, q+1))
	}
	opts := DefaultOptions(4)
	opts.SpecializeDiagonal1Q = true
	plan := assertPlanEquivalent(t, c, opts)
	if plan.Stats.Swaps != 0 {
		t.Errorf("all-diagonal circuit needed %d swaps", plan.Stats.Swaps)
	}
}

func TestKMax1DegeneratesToPerGate(t *testing.T) {
	c := supremacy(9, 8, 40)
	opts := DefaultOptions(6)
	opts.KMax = 1
	plan := assertPlanEquivalent(t, c, opts)
	// Every cluster must act on exactly 1 qubit... except 2-qubit gates,
	// which cannot shrink: they become their own clusters.
	for k := range plan.Stats.ClusterSizes {
		if k > 2 {
			t.Errorf("kmax=1 produced a %d-qubit cluster", k)
		}
	}
}

func TestLocalQubitsOne(t *testing.T) {
	// l=1: only single-qubit clusters are possible; 2-qubit dense gates
	// cannot execute. Supremacy circuits have CZ (diagonal, specialized),
	// so scheduling still succeeds.
	c := circuit.NewCircuit(4)
	c.Append(circuit.NewH(0), circuit.NewCZ(0, 1), circuit.NewH(1))
	opts := DefaultOptions(1)
	opts.KMax = 1
	assertPlanEquivalent(t, c, opts)
}

func TestLowestOrderFallbackProgress(t *testing.T) {
	// The lowest-order policy can evict needed qubits; the builder must
	// still terminate via the greedy fallback on every supremacy instance
	// we throw at it.
	for seed := int64(0); seed < 5; seed++ {
		c := supremacy(12, 20, seed)
		opts := DefaultOptions(6)
		opts.SwapPolicy = SwapLowestOrder
		if _, err := Build(c, opts); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestSummaryOutput(t *testing.T) {
	c := supremacy(9, 10, 41)
	plan, err := Build(c, DefaultOptions(6))
	if err != nil {
		t.Fatal(err)
	}
	s := plan.Summary()
	for _, want := range []string{"plan:", "stage 0:", "cluster", "SWAP"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestDiagonalOpHelper(t *testing.T) {
	// diagonalOp with reversed positions must permute the diagonal.
	g := circuit.NewCPhase(3, 1, 0.7) // qubits (3,1)
	op := diagonalOp(&g, func(q int) int { return q })
	if op.Positions[0] != 1 || op.Positions[1] != 3 {
		t.Fatalf("positions %v, want [1 3]", op.Positions)
	}
	// CPhase diag is (1,1,1,e^{iθ}) regardless of qubit order (symmetric),
	// so the permuted diagonal must equal the original.
	want := gate.CPhase(0.7).Diagonal()
	for i := range want {
		if op.Diag[i] != want[i] {
			t.Errorf("diag[%d] = %v, want %v", i, op.Diag[i], want[i])
		}
	}
	// An asymmetric diagonal: Rz ⊗ I style via a custom 2-qubit diag.
	m := gate.New(2)
	m.Set(0, 0, 1)
	m.Set(1, 1, 2)
	m.Set(2, 2, 3)
	m.Set(3, 3, 4)
	g2 := circuit.Gate{Kind: circuit.KindDiag, Qubits: []int{5, 2}, Custom: &m}
	op2 := diagonalOp(&g2, func(q int) int { return q })
	// Gate-local bit 0 ↔ qubit 5 (position 5), bit 1 ↔ qubit 2 (position 2).
	// Sorted positions [2,5]: sorted-bit 0 ↔ qubit 2, sorted-bit 1 ↔ qubit 5.
	// Original index x = (b1 b0) = (q2 q5); new index y = (q5 q2).
	// d_new[y= q5<<1 | q2 ] = d_old[ q2<<1 | q5 ]: d_new[1] = d_old[2] = 3.
	if op2.Diag[1] != 3 || op2.Diag[2] != 2 {
		t.Errorf("permuted diag = %v, want [1 3 2 4]", op2.Diag)
	}
}

func TestWideDiagonalGateBecomesDiagonalOp(t *testing.T) {
	// A 6-qubit diagonal gate exceeds kmax but must not force a dense
	// 2^6 matrix fusion — it becomes a diagonal op directly.
	rng := newRand(42)
	d := gate.RandomDiagonal(6, rng)
	c := circuit.NewCircuit(8)
	c.Append(circuit.NewDiag(d, 0, 1, 2, 3, 4, 5))
	opts := DefaultOptions(8)
	opts.KMax = 3
	plan, err := Build(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Ops) != 1 || plan.Ops[0].Kind != OpDiagonal {
		t.Fatalf("expected a single diagonal op, got %+v", plan.Ops)
	}
	assertPlanEquivalent(t, c, opts)
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestSeedSearchReducesClusters(t *testing.T) {
	// The "small local search" over cluster seeds picks the cluster that is
	// cheapest per merged gate, so the plan it builds must not be modelled
	// dearer than the no-search baseline's — under the flat paper table,
	// where every pass costs one, that is a count of clusters — and the
	// plan stays equivalent.
	c := supremacy(20, 25, 50)
	for name, costs := range map[string]CostTable{"measured": MeasuredCosts(), "paper": PaperCosts()} {
		with := DefaultOptions(20)
		with.Costs = costs
		without := with
		without.NoSeedSearch = true
		pw, err := Build(c, with)
		if err != nil {
			t.Fatal(err)
		}
		pwo, err := Build(c, without)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := costs.PlanCost(pw), costs.PlanCost(pwo); a > b {
			t.Errorf("%s table: seed search raised the modelled cost: %.2f vs %.2f passes", name, a, b)
		}
		t.Logf("%s table: clusters with search %d, without %d", name, pw.Stats.Clusters, pwo.Stats.Clusters)
	}
	// Correctness of the no-search path on a small instance.
	small := supremacy(10, 12, 51)
	opts := DefaultOptions(7)
	opts.NoSeedSearch = true
	assertPlanEquivalent(t, small, opts)
}
