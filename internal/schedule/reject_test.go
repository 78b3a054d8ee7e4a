package schedule_test

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"qusim/internal/circuit"
	"qusim/internal/dist"
	"qusim/internal/oocvec"
	"qusim/internal/schedule"
	"qusim/internal/statevec"
)

// Plans from outside the process reach four entry points: ReadPlan, which
// checks them, and the three executors, which may also be handed a plan no
// file held. All four cut the plan with the same walk (Plan.AccessMap), so
// they give one answer to a malformed one, and the answer is an error.

// malformedPlans returns the defects of a plan — of its structure or of one
// op — that no executor can run, most as a corrupted copy of the
// RandomCircuit(6, 30, 1) plan at l = 5 — two ranks, two file chunks; every
// swap exchanges one qubit.
func malformedPlans(t *testing.T) map[string]*schedule.Plan {
	t.Helper()
	base, err := schedule.Build(circuit.RandomCircuit(6, 30, 1), schedule.DefaultOptions(5))
	if err != nil {
		t.Fatal(err)
	}
	swap, diag, cluster := -1, -1, -1 // the first swap, diagonal, cluster of k ≥ 2
	for i := range base.Ops {
		op := &base.Ops[i]
		switch {
		case op.Kind == schedule.OpSwap && swap < 0:
			swap = i
		case op.Kind == schedule.OpDiagonal && diag < 0:
			diag = i
		case op.Kind == schedule.OpCluster && cluster < 0 && len(op.Positions) >= 2:
			cluster = i
		}
	}
	if swap < 1 || len(base.Ops[swap].LocalPos) != 1 || diag < 0 || cluster < 0 {
		t.Fatalf("plan lacks a one-qubit swap after an op of its stage, a diagonal or a two-position cluster:\n%s", base.Summary())
	}
	corrupt := func(edit func(ops []schedule.Op) []schedule.Op) *schedule.Plan {
		p := *base
		p.Ops = edit(append([]schedule.Op(nil), base.Ops...))
		return &p
	}
	insert := func(ops []schedule.Op, i int, op schedule.Op) []schedule.Op {
		return append(ops[:i], append([]schedule.Op{op}, ops[i:]...)...)
	}
	return map[string]*schedule.Plan{
		"swap of a location other than the top one": corrupt(func(ops []schedule.Op) []schedule.Op {
			ops[swap].LocalPos = []int{0}
			return ops
		}),
		"op after the closing swap": corrupt(func(ops []schedule.Op) []schedule.Op {
			late := ops[swap-1]
			late.Stage = ops[swap].Stage
			return insert(ops, swap+1, late)
		}),
		"two swaps in one stage": corrupt(func(ops []schedule.Op) []schedule.Op {
			return insert(ops, swap+1, ops[swap])
		}),
		"swap carrying a permutation": corrupt(func(ops []schedule.Op) []schedule.Op {
			ops[swap].Perm = []int{0, 1, 2, 3, 4}
			return ops
		}),
		"first op at stage -1": corrupt(func(ops []schedule.Op) []schedule.Op {
			ops[0].Stage = -1
			return ops
		}),
		"cluster positions not ascending": corrupt(func(ops []schedule.Op) []schedule.Op {
			ops[cluster].Positions = slices.Clone(ops[cluster].Positions)
			slices.Reverse(ops[cluster].Positions)
			return ops
		}),
		"cluster position not local": corrupt(func(ops []schedule.Op) []schedule.Op {
			ops[cluster].Positions = slices.Clone(ops[cluster].Positions)
			ops[cluster].Positions[len(ops[cluster].Positions)-1] = base.L
			return ops
		}),
		"local permutation that is not a permutation": corrupt(func(ops []schedule.Op) []schedule.Op {
			bad := schedule.Op{Kind: schedule.OpLocalPerm, Stage: ops[swap].Stage, Perm: make([]int, base.L)}
			return insert(ops, swap, bad)
		}),
		"diagonal of the wrong size": corrupt(func(ops []schedule.Op) []schedule.Op {
			ops[diag].Diag = ops[diag].Diag[1:]
			return ops
		}),
		"cluster matrix with a NaN entry": corrupt(func(ops []schedule.Op) []schedule.Op {
			ops[cluster].Matrix.Data = slices.Clone(ops[cluster].Matrix.Data)
			ops[cluster].Matrix.Data[1] = complex(0, math.NaN())
			return ops
		}),
		"diagonal with an infinite entry": corrupt(func(ops []schedule.Op) []schedule.Op {
			ops[diag].Diag = slices.Clone(ops[diag].Diag)
			ops[diag].Diag[0] = complex(math.Inf(-1), 0)
			return ops
		}),
		// q = 3 "top" locations of a two-location shard start at L − q = −1.
		"swap of more locations than the shard has": {
			N: 5, L: 2,
			InitialPos: []int{0, 1, 2, 3, 4}, FinalPos: []int{0, 1, 2, 3, 4},
			Ops: []schedule.Op{{Kind: schedule.OpSwap, LocalPos: []int{-1, 0, 1}, GlobalPos: []int{2, 3, 4}}},
		},
	}
}

// TestMalformedPlansRejectedEverywhere: ReadPlan, Plan.Run, dist.Run on two
// ranks and oocvec.Run on two chunks each return an error for every
// malformed plan, and none panics.
func TestMalformedPlansRejectedEverywhere(t *testing.T) {
	for name, plan := range malformedPlans(t) {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := schedule.WritePlan(&buf, plan); err != nil {
				t.Fatal(err)
			}
			if _, err := schedule.ReadPlan(&buf); err == nil {
				t.Error("ReadPlan accepted it")
			}
			if err := plan.Run(statevec.NewUniform(plan.N)); err == nil {
				t.Error("Plan.Run ran it")
			}
			if _, err := dist.Run(plan, dist.Options{Ranks: 2, Init: dist.InitUniform}); err == nil {
				t.Error("dist.Run ran it")
			}
			v, err := oocvec.NewUniform(plan.N, plan.L, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer v.Close()
			if err := v.Run(plan); err == nil {
				t.Error("oocvec.Run ran it")
			}
		})
	}
}

// FuzzReadPlan feeds ReadPlan — the one way a plan from outside the process
// gets in (qsim -plan) — arbitrary bytes: it must return an error or a plan
// that survives a round trip, and never panic. What it checked (the stage
// cut, positions ascending and in range, matrix and diagonal sizes) is what
// the kernels trust, so a small accepted plan is also executed on one vector
// and on two ranks — dist holds a swap to the strictest shape.
func FuzzReadPlan(f *testing.F) {
	for _, l := range []int{4, 5, 6} {
		plan, err := schedule.Build(circuit.RandomCircuit(6, 30, int64(l)), schedule.DefaultOptions(l))
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := schedule.WritePlan(&buf, plan); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("not a plan"))
	f.Fuzz(func(t *testing.T, data []byte) {
		plan, err := schedule.ReadPlan(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := schedule.WritePlan(&buf, plan); err != nil {
			t.Fatalf("accepted plan does not encode: %v", err)
		}
		if _, err := schedule.ReadPlan(&buf); err != nil {
			t.Fatalf("accepted plan does not survive a round trip: %v", err)
		}
		if plan.N <= 12 && len(plan.Ops) <= 256 {
			// An error is fine; a panic is not.
			_ = plan.Run(statevec.New(plan.N))
			_, _ = dist.Run(plan, dist.Options{Ranks: 2})
		}
	})
}
