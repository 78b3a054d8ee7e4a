package oocvec

import (
	"math"
	"os"
	"testing"

	"qusim/internal/circuit"
	"qusim/internal/schedule"
	"qusim/internal/statevec"
)

func TestManySwapsSmallChunks(t *testing.T) {
	// A small chunk size forces several swaps (layout renumberings) per circuit.
	n, l := 12, 5
	circ, plan := buildPlan(t, n, l, 16, 8)
	if plan.Stats.Swaps < 2 {
		t.Fatalf("want a multi-swap plan, got %d swaps", plan.Stats.Swaps)
	}
	ooc, err := NewUniform(n, l, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer ooc.Close()
	if err := ooc.Run(plan); err != nil {
		t.Fatal(err)
	}
	want := statevec.NewUniform(n)
	for i := range circ.Gates {
		g := &circ.Gates[i]
		want.Apply(g.Matrix(), g.Qubits...)
	}
	ent, err := ooc.Entropy()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ent-want.Entropy()) > 1e-9 {
		t.Errorf("entropy %v, want %v (swaps=%d)", ent, want.Entropy(), plan.Stats.Swaps)
	}
}

func TestCloseRemovesBackingFile(t *testing.T) {
	v, err := New(8, 4, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	name := v.f.Name()
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(name); !os.IsNotExist(err) {
		t.Errorf("backing file %s still exists after Close", name)
	}
}

func TestUniformInitProperties(t *testing.T) {
	v, err := NewUniform(9, 5, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	norm, err := v.Norm()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(norm-1) > 1e-12 {
		t.Errorf("uniform norm %v", norm)
	}
	ent, err := v.Entropy()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ent-9*math.Ln2) > 1e-12 {
		t.Errorf("uniform entropy %v", ent)
	}
	amps, err := v.Amplitudes()
	if err != nil {
		t.Fatal(err)
	}
	want := complex(math.Pow(2, -4.5), 0)
	for i, a := range amps {
		if a != want {
			t.Fatalf("amp[%d] = %v, want %v", i, a, want)
		}
	}
}

func TestRunRejectsUnknownKind(t *testing.T) {
	v, err := New(6, 3, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	bad := &schedule.Plan{N: 6, L: 3, Ops: []schedule.Op{{Kind: schedule.OpKind(99)}}}
	for _, depth := range []int{0, 2} {
		v.SetPrefetch(depth)
		if err := v.Run(bad); err == nil {
			t.Errorf("depth %d: unknown op kind accepted", depth)
		}
	}
}

func BenchmarkOutOfCoreVsInMemory(b *testing.B) {
	n, l := 16, 10
	rows, cols := circuit.GridForQubits(n)
	circ := circuit.Supremacy(circuit.SupremacyOptions{
		Rows: rows, Cols: cols, Depth: 16, Seed: 8, SkipInitialH: true,
	})
	plan, err := schedule.Build(circ, schedule.DefaultOptions(l))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("outofcore", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v, err := NewUniform(n, l, b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			if err := v.Run(plan); err != nil {
				b.Fatal(err)
			}
			v.Close()
		}
	})
	b.Run("inmemory", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v := statevec.NewUniform(n)
			for j := range circ.Gates {
				g := &circ.Gates[j]
				v.Apply(g.Matrix(), g.Qubits...)
			}
		}
	})
}
