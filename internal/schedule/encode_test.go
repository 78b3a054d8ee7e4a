package schedule

import (
	"bytes"
	"encoding/gob"
	"reflect"
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

// TestWritePlanIsDeterministic: a plan saves to the same bytes every time,
// where gob wrote the map Stats.ClusterSizes in random order, and a version-1
// file, which carries the map, still reads back to the same plan.
func TestWritePlanIsDeterministic(t *testing.T) {
	plan, err := Build(supremacy(16, 12, 5), DefaultOptions(12))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Stats.ClusterSizes) < 3 {
		t.Fatalf("plan has %d cluster sizes; want several for the order to matter", len(plan.Stats.ClusterSizes))
	}
	var first bytes.Buffer
	if err := WritePlan(&first, plan); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		var again bytes.Buffer
		if err := WritePlan(&again, plan); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), first.Bytes()) {
			t.Fatalf("save %d differs from the first", i+2)
		}
	}
	var v1 bytes.Buffer
	if err := gob.NewEncoder(&v1).Encode(planWire{Version: 1, N: plan.N, L: plan.L, Ops: plan.Ops,
		InitialPos: plan.InitialPos, FinalPos: plan.FinalPos, Stats: plan.Stats}); err != nil {
		t.Fatal(err)
	}
	for name, buf := range map[string]*bytes.Buffer{"version 1": &v1, "version 2": &first} {
		got, err := ReadPlan(buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Fingerprint() != plan.Fingerprint() || !reflect.DeepEqual(got.Stats, plan.Stats) {
			t.Errorf("%s: read back %+v, wrote %+v", name, got.Stats, plan.Stats)
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
	swap, perm := -1, -1
	for i := range plan.Ops {
		switch plan.Ops[i].Kind {
		case OpSwap:
			swap = i
		case OpLocalPerm:
			perm = i
		}
	}
	if swap < 0 || perm < 0 {
		t.Fatal("plan has no swap or no local permutation")
	}
	for name, corrupt := range map[string]func(ops []Op){
		"stage running backwards": func(ops []Op) { ops[len(ops)-1].Stage = -1 },
		"first op at stage -1":    func(ops []Op) { ops[0].Stage = -1 },
		"stage skipped":           func(ops []Op) { ops[len(ops)-1].Stage += 2 },
		"non-permutation perm": func(ops []Op) {
			ops[perm].Perm = append([]int(nil), ops[perm].Perm...)
			ops[perm].Perm[0] = ops[perm].Perm[1]
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
