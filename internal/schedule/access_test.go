package schedule

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"qusim/internal/circuit"
)

// checkAccessInvariants re-derives, by an independent walk over plan.Ops,
// what a paged executor streaming the plan would do, and asserts the access
// map says exactly that: the op partition, the streamed subset, the swap
// geometry, and the per-stage qubit set.
func checkAccessInvariants(t *testing.T, plan *Plan) *ChunkAccess {
	t.Helper()
	access, err := plan.AccessMap()
	if err != nil {
		t.Fatal(err)
	}
	if access.N != plan.N || access.L != plan.L {
		t.Fatalf("access map shape (n=%d l=%d) != plan (n=%d l=%d)", access.N, access.L, plan.N, plan.L)
	}
	if got, want := len(access.Stages), plan.Stages(); got != want {
		t.Fatalf("access map has %d stages, plan has %d", got, want)
	}

	next := 0 // next expected op index: stages partition Ops in order
	for s := range access.Stages {
		sa := &access.Stages[s]
		if sa.Stage != s {
			t.Fatalf("stage %d recorded as %d", s, sa.Stage)
		}

		// Independent re-derivation of this stage's behavior.
		var wantOps, wantStream []int
		wantSwap := -1
		var wantBits []int
		var wantMask uint64
		streams := false
		for i := range plan.Ops {
			op := &plan.Ops[i]
			if op.Stage != s {
				continue
			}
			wantOps = append(wantOps, i)
			switch op.Kind {
			case OpCluster, OpDiagonal:
				wantStream = append(wantStream, i)
				streams = true
				for _, q := range op.Positions {
					if q < plan.L {
						wantMask |= 1 << q
					}
				}
			case OpLocalPerm:
				wantStream = append(wantStream, i)
				streams = true
				for q, dst := range op.Perm {
					if q != dst {
						wantMask |= 1 << q
					}
				}
			case OpSwap:
				wantSwap = i
				for _, g := range op.GlobalPos {
					wantBits = append(wantBits, g-plan.L)
				}
				for _, q := range op.LocalPos {
					wantMask |= 1 << q
				}
				if op.Perm != nil {
					streams = true
				}
			}
		}

		if !reflect.DeepEqual(sa.Ops, wantOps) {
			t.Fatalf("stage %d: Ops = %v, executor walks %v", s, sa.Ops, wantOps)
		}
		for _, i := range wantOps {
			if i != next {
				t.Fatalf("stage %d: op %d out of plan order (expected %d)", s, i, next)
			}
			next++
		}
		if !reflect.DeepEqual(sa.StreamOps, wantStream) {
			t.Fatalf("stage %d: StreamOps = %v, want %v", s, sa.StreamOps, wantStream)
		}
		if sa.Swap != wantSwap {
			t.Fatalf("stage %d: Swap = %d, want %d", s, sa.Swap, wantSwap)
		}
		if !reflect.DeepEqual(sa.SwapChunkBits, wantBits) {
			t.Fatalf("stage %d: SwapChunkBits = %v, want %v (GlobalPos − L)", s, sa.SwapChunkBits, wantBits)
		}
		if sa.LocalQubitMask != wantMask {
			t.Fatalf("stage %d: LocalQubitMask = %b, want %b", s, sa.LocalQubitMask, wantMask)
		}
		if sa.Reads != streams || sa.Writes != streams {
			t.Fatalf("stage %d: Reads/Writes = %v/%v, streamed pass exists: %v", s, sa.Reads, sa.Writes, streams)
		}
		if (wantSwap >= 0) != sa.Exchanges() {
			t.Fatalf("stage %d: Exchanges() = %v, want %v", s, sa.Exchanges(), wantSwap >= 0)
		}
		if s < len(access.Stages)-1 && !sa.Exchanges() {
			t.Fatalf("non-final stage %d does not exchange", s)
		}

		// Chunk-set semantics: every non-empty stage touches every chunk,
		// and swap partner groups are exactly the chunks reachable by
		// flipping subsets of SwapChunkBits.
		chunks := access.Chunks()
		for c := 0; c < chunks; c++ {
			if got, want := sa.Touches(c), len(wantOps) > 0; got != want {
				t.Fatalf("stage %d: Touches(%d) = %v, want %v", s, c, got, want)
			}
		}
		if sa.Exchanges() && chunks <= 1<<10 {
			q := len(sa.SwapChunkBits)
			groupMask := 0
			for _, b := range sa.SwapChunkBits {
				if b < 0 || b >= plan.N-plan.L {
					t.Fatalf("stage %d: swap chunk bit %d out of range", s, b)
				}
				groupMask |= 1 << b
			}
			for c := 0; c < chunks; c++ {
				got := sa.Partners(c, nil)
				if len(got) != 1<<q-1 {
					t.Fatalf("stage %d: chunk %d has %d partners, want %d", s, c, len(got), 1<<q-1)
				}
				var want []int
				for d := 0; d < chunks; d++ {
					if d != c && d&^groupMask == c&^groupMask {
						want = append(want, d)
					}
				}
				sort.Ints(got)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("stage %d: Partners(%d) = %v, want %v", s, c, got, want)
				}
				for _, d := range got {
					back := sa.Partners(d, nil)
					found := false
					for _, e := range back {
						if e == c {
							found = true
						}
					}
					if !found {
						t.Fatalf("stage %d: exchange not symmetric: %d ∈ Partners(%d) but not vice versa", s, d, c)
					}
				}
			}
		}
	}
	if next != len(plan.Ops) {
		t.Fatalf("stages cover %d of %d ops", next, len(plan.Ops))
	}
	return access
}

func TestAccessMapMatchesExecutor(t *testing.T) {
	for _, tc := range []struct{ n, l, depth int }{
		{10, 6, 16}, {12, 8, 20}, {9, 4, 12}, {8, 6, 24},
	} {
		plan, err := Build(supremacy(tc.n, tc.depth, int64(tc.n+tc.l)), DefaultOptions(tc.l))
		if err != nil {
			t.Fatal(err)
		}
		checkAccessInvariants(t, plan)
	}
}

// TestAccessMapEqualForEqualFingerprints: the map is a function of the plan
// structure, and every call builds its own — a caller that scribbles on one
// cannot reach another caller's.
func TestAccessMapEqualForEqualFingerprints(t *testing.T) {
	build := func() *Plan {
		plan, err := Build(supremacy(10, 14, 11), DefaultOptions(6))
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	p1, p2 := build(), build()
	if p1.Fingerprint() != p2.Fingerprint() {
		t.Fatal("identical builds produced different fingerprints")
	}
	a1, err := p1.AccessMap()
	if err != nil {
		t.Fatal(err)
	}
	a2, err := p2.AccessMap()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a1, a2) {
		t.Error("equal-fingerprint plans have different access maps")
	}
	again, err := p1.AccessMap()
	if err != nil {
		t.Fatal(err)
	}
	if a1 == again || &a1.Stages[0] == &again.Stages[0] || &a1.Stages[0].Ops[0] == &again.Stages[0].Ops[0] {
		t.Fatal("two AccessMap calls share memory")
	}
	a1.Stages[0].Ops[0], a1.Stages[0].Swap = -7, -7
	if !reflect.DeepEqual(again, a2) {
		t.Error("mutating one access map changed another")
	}
}

// TestAccessMapAcrossParameterSweep is the QAOA/VQE re-run scenario:
// rebuilding the plan with perturbed gate angles changes the value
// fingerprint but not the structure fingerprint, and the access map follows
// the structure.
func TestAccessMapAcrossParameterSweep(t *testing.T) {
	build := func(theta float64) *Plan {
		c := parameterizedCircuit(10, theta)
		plan, err := Build(c, DefaultOptions(6))
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	p1, p2 := build(0.3), build(0.3+1e-3)
	if p1.Fingerprint() == p2.Fingerprint() {
		t.Fatal("angle perturbation did not change the value fingerprint")
	}
	if p1.StructureFingerprint() != p2.StructureFingerprint() {
		t.Fatal("angle perturbation changed the structure fingerprint")
	}
	a1, err := p1.AccessMap()
	if err != nil {
		t.Fatal(err)
	}
	a2, err := p2.AccessMap()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a1, a2) {
		t.Error("equal-structure plans have different access maps")
	}
	checkAccessInvariants(t, p1)
}

// parameterizedCircuit is a QAOA-shaped layered circuit: mixing rotations
// and entangling phase gates whose angles are all derived from theta.
func parameterizedCircuit(n int, theta float64) *circuit.Circuit {
	c := circuit.NewCircuit(n)
	for q := 0; q < n; q++ {
		c.Append(circuit.NewH(q))
	}
	for layer := 0; layer < 3; layer++ {
		for q := 0; q+1 < n; q += 2 {
			c.Append(circuit.NewCPhase(q, q+1, theta*float64(layer+1)))
		}
		for q := 1; q+1 < n; q += 2 {
			c.Append(circuit.NewCPhase(q, q+1, theta/float64(layer+1)))
		}
		for q := 0; q < n; q++ {
			c.Append(circuit.NewRz(q, math.Pi*theta+float64(q)))
		}
		for q := 0; q < n; q++ {
			c.Append(circuit.NewXHalf(q))
		}
	}
	return c
}

// FuzzChunkAccess drives random circuits through Build and asserts the
// access-map invariants plus determinism: an equal-fingerprint rebuild has
// an equal access map of its own.
func FuzzChunkAccess(f *testing.F) {
	f.Add(int64(1), 6, 30, 3)
	f.Add(int64(2), 8, 48, 5)
	f.Add(int64(3), 10, 60, 7)
	f.Add(int64(4), 4, 24, 2)
	f.Fuzz(func(t *testing.T, seed int64, n, gates, l int) {
		if n < 2 {
			n = 2
		}
		if n > 10 {
			n = 2 + int(uint(n)%9)
		}
		if gates < 1 {
			gates = 1
		}
		if gates > 120 {
			gates = 1 + int(uint(gates)%120)
		}
		if l < 2 || l > n {
			l = 2 + int(uint(l)%uint(n-1))
		}
		c := circuit.RandomCircuit(n, gates, seed)
		opts := DefaultOptions(l)
		if opts.KMax > l {
			opts.KMax = l
		}
		build := func() *Plan {
			plan, err := Build(c, opts)
			if err != nil {
				t.Fatalf("Build(n=%d gates=%d l=%d seed=%d): %v", n, gates, l, seed, err)
			}
			return plan
		}
		p1 := build()
		access := checkAccessInvariants(t, p1)
		p2 := build()
		if p1.Fingerprint() != p2.Fingerprint() || p1.StructureFingerprint() != p2.StructureFingerprint() {
			t.Fatal("deterministic rebuild changed the fingerprint")
		}
		again, err := p2.AccessMap()
		if err != nil {
			t.Fatal(err)
		}
		if again == access || !reflect.DeepEqual(again, access) {
			t.Fatal("equal-fingerprint rebuild did not produce an equal access map of its own")
		}
	})
}
