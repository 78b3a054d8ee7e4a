package schedule

import (
	"bytes"
	"testing"

	"qusim/internal/circuit"
	"qusim/internal/statevec"
)

func TestPlanRoundTrip(t *testing.T) {
	c := supremacy(12, 16, 90)
	for name, build := range map[string]func() (*Plan, error){
		"Build":   func() (*Plan, error) { return Build(c, DefaultOptions(8)) },
		"PerGate": func() (*Plan, error) { return PerGate(c, 8, func(g *circuit.Gate) bool { return g.K() == 2 }) },
	} {
		plan, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var buf bytes.Buffer
		if err := WritePlan(&buf, plan); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := ReadPlan(&buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.N != plan.N || got.L != plan.L || len(got.Ops) != len(plan.Ops) {
			t.Fatalf("%s: round trip mismatch: n=%d l=%d ops=%d", name, got.N, got.L, len(got.Ops))
		}
		if got.Stats.Swaps != plan.Stats.Swaps || got.Stats.Clusters != plan.Stats.Clusters {
			t.Errorf("%s: stats mismatch after round trip", name)
		}
		// Executing the deserialized plan must give identical results.
		a := statevec.NewUniform(c.N)
		b := statevec.NewUniform(c.N)
		if err := plan.Run(a); err != nil {
			t.Fatal(err)
		}
		if err := got.Run(b); err != nil {
			t.Fatal(err)
		}
		if d := a.MaxDiff(b); d != 0 {
			t.Errorf("%s: deserialized plan diverges: max diff %g", name, d)
		}
	}
}

func TestReadPlanRejectsGarbage(t *testing.T) {
	if _, err := ReadPlan(bytes.NewReader([]byte("not a plan"))); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadPlan(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
}

func TestReadPlanValidates(t *testing.T) {
	c := supremacy(9, 8, 91)
	plan, err := Build(c, DefaultOptions(6))
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the position map and re-encode.
	bad := *plan
	bad.FinalPos = append([]int(nil), plan.FinalPos...)
	bad.FinalPos[0] = bad.FinalPos[1]
	var buf bytes.Buffer
	if err := WritePlan(&buf, &bad); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadPlan(&buf); err == nil {
		t.Error("non-permutation position map accepted")
	}

	// Unsorted op positions would panic in the kernels' argument check.
	bad = *plan
	bad.Ops = append([]Op(nil), plan.Ops...)
	for i := range bad.Ops {
		if op := &bad.Ops[i]; len(op.Positions) >= 2 {
			op.Positions = []int{op.Positions[1], op.Positions[0]}
			op.Positions = append(op.Positions, plan.Ops[i].Positions[2:]...)
			break
		}
	}
	buf.Reset()
	if err := WritePlan(&buf, &bad); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadPlan(&buf); err == nil {
		t.Error("unsorted op positions accepted")
	}
	// What the executors index or permute by without looking: a stage that
	// runs backwards, a permutation that is none, a swap of a location with
	// itself.
	swap := -1
	for i := range plan.Ops {
		if plan.Ops[i].Kind == OpSwap && plan.Ops[i].Perm != nil {
			swap = i
		}
	}
	if swap < 0 {
		t.Fatal("plan has no swap with a fused permutation")
	}
	for name, corrupt := range map[string]func(ops []Op){
		"stage running backwards": func(ops []Op) { ops[len(ops)-1].Stage = -1 },
		"stage skipped":           func(ops []Op) { ops[len(ops)-1].Stage += 2 },
		"non-permutation perm": func(ops []Op) {
			ops[swap].Perm = append([]int(nil), ops[swap].Perm...)
			ops[swap].Perm[0] = ops[swap].Perm[1]
		},
		"swap of a local location with a local one": func(ops []Op) { ops[swap].GlobalPos = []int{0}; ops[swap].LocalPos = []int{1} },
	} {
		bad = *plan
		bad.Ops = append([]Op(nil), plan.Ops...)
		corrupt(bad.Ops)
		buf.Reset()
		if err := WritePlan(&buf, &bad); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadPlan(&buf); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
