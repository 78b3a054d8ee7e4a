package circuit

import (
	"testing"
)

func TestSupremacyDepthTracksParameter(t *testing.T) {
	// Circuit depth (critical path) grows with the cycle count, roughly
	// one level per cycle plus the Hadamard layer.
	prev := 0
	for _, d := range []int{4, 8, 16, 32} {
		c := Supremacy(SupremacyOptions{Rows: 4, Cols: 4, Depth: d, Seed: 1})
		got := c.Depth()
		if got <= prev {
			t.Errorf("depth parameter %d: circuit depth %d did not grow (prev %d)", d, got, prev)
		}
		if got > d+2 {
			t.Errorf("depth parameter %d: circuit depth %d exceeds cycles+2", d, got)
		}
		prev = got
	}
}

func TestCountKindTotalsSum(t *testing.T) {
	c := Supremacy(SupremacyOptions{Rows: 5, Cols: 4, Depth: 20, Seed: 2})
	total := 0
	for _, k := range []Kind{KindH, KindT, KindXHalf, KindYHalf, KindCZ} {
		total += countKind(c, k)
	}
	if total != len(c.Gates) {
		t.Errorf("kind counts sum to %d, circuit has %d gates", total, len(c.Gates))
	}
}

func TestCycleMetadataMonotonePerQubit(t *testing.T) {
	c := Supremacy(SupremacyOptions{Rows: 4, Cols: 4, Depth: 16, Seed: 3})
	last := map[int]int{}
	for _, g := range c.Gates {
		for _, q := range g.Qubits {
			if g.Cycle < last[q] {
				t.Fatalf("gate %v at cycle %d after cycle %d on qubit %d", g, g.Cycle, last[q], q)
			}
			last[q] = g.Cycle
		}
	}
}

func TestSingleRowGrid(t *testing.T) {
	// A 1×n chain still satisfies the pattern invariants (vertical classes
	// are empty).
	l := Layout{Rows: 1, Cols: 8}
	counts := map[Bond]int{}
	for cyc := 1; cyc <= 8; cyc++ {
		seen := map[int]bool{}
		for _, b := range l.CZPattern(cyc) {
			if seen[b.A] || seen[b.B] {
				t.Fatalf("cycle %d not a matching", cyc)
			}
			seen[b.A] = true
			seen[b.B] = true
			counts[b]++
		}
	}
	for _, b := range l.AllBonds() {
		if counts[b] != 1 {
			t.Errorf("bond %v applied %d times", b, counts[b])
		}
	}
	c := Supremacy(SupremacyOptions{Rows: 1, Cols: 8, Depth: 16, Seed: 4})
	if len(c.Gates) == 0 {
		t.Error("chain circuit is empty")
	}
}

func TestGroverZeroIterations(t *testing.T) {
	c := Grover(4, 3, 0)
	// Only the Hadamard layer.
	if len(c.Gates) != 4 {
		t.Errorf("Grover with 0 iterations has %d gates, want 4", len(c.Gates))
	}
}

func TestKindStrings(t *testing.T) {
	if KindCZ.String() != "cz" || KindXHalf.String() != "x_1_2" {
		t.Error("kind names changed — text format compatibility break")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind has empty string")
	}
}

// countKind returns the number of gates of kind k in c.
func countKind(c *Circuit, k Kind) int {
	n := 0
	for _, g := range c.Gates {
		if g.Kind == k {
			n++
		}
	}
	return n
}
