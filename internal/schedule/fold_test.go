package schedule

import (
	"math/bits"
	"math/cmplx"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"qusim/internal/circuit"
	"qusim/internal/gate"
)

// TestFoldDiagonals holds the fold to its contract on plans full of
// diagonals: every op of a folded plan is either the unfolded plan's op or a
// diagonal standing for a maximal run of consecutive diagonals of one stage
// of it — on the union of their positions, at most foldWidth of them, with
// the sum of their gate counts — that applies as the run does op by op, to
// 1e-13 on a random 12-qubit state. Plans without clustering and PerGate
// plans keep every diagonal as it was.
func TestFoldDiagonals(t *testing.T) {
	const n = 12
	rng := rand.New(rand.NewSource(61))
	state := make([]complex128, 1<<n)
	for i := range state {
		state[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	phased := circuit.QFT(n)
	phased.Gates = slices.Insert(phased.Gates, 5, circuit.NewDiag(gate.RandomDiagonal(0, rng)))
	spec1q := DefaultOptions(9)
	spec1q.SpecializeDiagonal1Q = true
	folds := 0
	for _, g := range []struct {
		name string
		c    *circuit.Circuit
		opts Options
	}{
		{"qft/l8", circuit.QFT(n), DefaultOptions(8)},
		{"qft/paper/l8", circuit.QFT(n), paperOptions(8, 5)},
		{"qft+phase/l10", phased, DefaultOptions(10)},
		{"random/spec1q/l9", circuit.RandomCircuit(n, 300, 7), spec1q},
	} {
		flat, err := build(g.c, g.opts, false)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		folded, err := Build(g.c, g.opts)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if s, u := folded.Stats, flat.Stats; s.Clusters != u.Clusters || s.DiagonalOps != u.DiagonalOps || s.FoldedDiagonals != len(flat.Ops)-len(folded.Ops) {
			t.Errorf("%s: %d clusters, %d diagonal ops, %d folded away; unfolded %d, %d, and %d ops fewer",
				g.name, s.Clusters, s.DiagonalOps, s.FoldedDiagonals, u.Clusters, u.DiagonalOps, len(flat.Ops)-len(folded.Ops))
		}
		i, covered := 0, 0
		for j := range folded.Ops {
			op := &folded.Ops[j]
			covered += op.GateCount
			if op.Kind != OpDiagonal {
				if i >= len(flat.Ops) || !reflect.DeepEqual(*op, flat.Ops[i]) {
					t.Fatalf("%s: op %d (%v, stage %d) is not the unfolded plan's op %d", g.name, j, op.Kind, op.Stage, i)
				}
				i++
				continue
			}
			k, gates, mask := i, 0, uint64(0)
			for ; gates < op.GateCount; k++ {
				if k >= len(flat.Ops) || flat.Ops[k].Kind != OpDiagonal || flat.Ops[k].Stage != op.Stage {
					t.Fatalf("%s: folded op %d (stage %d, %d gates) reaches past a diagonal of its stage at unfolded op %d", g.name, j, op.Stage, op.GateCount, k)
				}
				gates += flat.Ops[k].GateCount
				mask |= positionMask(flat.Ops[k].Positions)
			}
			if gates != op.GateCount || !slices.Equal(op.Positions, setBits(mask)) || len(op.Positions) > foldWidth {
				t.Fatalf("%s: op %d on %v with %d gates folds unfolded ops %d…%d: %d gates on %v (bound %d)",
					g.name, j, op.Positions, op.GateCount, i, k-1, gates, setBits(mask), foldWidth)
			}
			if k < len(flat.Ops) {
				if next := &flat.Ops[k]; next.Kind == OpDiagonal && next.Stage == op.Stage && bits.OnesCount64(mask|positionMask(next.Positions)) <= foldWidth {
					t.Errorf("%s: op %d stops short of unfolded op %d, which fits", g.name, j, k)
				}
			}
			if k-i > 1 {
				folds++
				one := Shard[complex128]{Amps: slices.Clone(state), L: n}
				each := Shard[complex128]{Amps: slices.Clone(state), L: n}
				if err := one.Apply(op); err != nil {
					t.Fatal(err)
				}
				for m := i; m < k; m++ {
					if err := each.Apply(&flat.Ops[m]); err != nil {
						t.Fatal(err)
					}
				}
				for x := range state {
					if d := cmplx.Abs(one.Amps[x] - each.Amps[x]); d > 1e-13 {
						t.Fatalf("%s: op %d (ops %d…%d folded) moves amplitude %d by %g from the ops one by one", g.name, j, i, k-1, x, d)
					}
				}
			}
			i = k
		}
		if i != len(flat.Ops) || covered != len(g.c.Gates) {
			t.Errorf("%s: folded plan stands for %d of %d unfolded ops and %d of %d gates", g.name, i, len(flat.Ops), covered, len(g.c.Gates))
		}
	}
	if folds == 0 {
		t.Fatal("no diagonals folded")
	}

	// Gate by gate stays gate by gate.
	c := circuit.QFT(n)
	ablate := DefaultOptions(8)
	ablate.Clustering = false
	flat, err := build(c, ablate, false)
	if err != nil {
		t.Fatal(err)
	}
	ablated, err := Build(c, ablate)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ablated.Ops, flat.Ops) {
		t.Error("Clustering=false: Build's ops differ from the unfolded plan's")
	}
	perGate, err := PerGate(c, 8, func(*circuit.Gate) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]*Plan{"Clustering=false": ablated, "PerGate": perGate} {
		if p.Stats.FoldedDiagonals != 0 {
			t.Errorf("%s: %d diagonals folded", name, p.Stats.FoldedDiagonals)
		}
		for _, op := range p.Ops {
			if op.Kind == OpDiagonal && op.GateCount != 1 {
				t.Errorf("%s: a diagonal op on %v stands for %d gates", name, op.Positions, op.GateCount)
			}
		}
	}
}
