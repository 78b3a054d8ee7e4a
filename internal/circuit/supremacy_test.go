package circuit

import (
	"testing"
)

func TestCZPatternsAreMatchings(t *testing.T) {
	for _, grid := range [][2]int{{4, 4}, {6, 5}, {6, 6}, {7, 6}, {9, 5}, {7, 7}} {
		l := Layout{Rows: grid[0], Cols: grid[1]}
		for cyc := 1; cyc <= 8; cyc++ {
			seen := map[int]bool{}
			for _, b := range l.CZPattern(cyc) {
				if seen[b.A] || seen[b.B] {
					t.Errorf("grid %v cycle %d: pattern is not a matching (qubit reused)", grid, cyc)
				}
				seen[b.A] = true
				seen[b.B] = true
			}
		}
	}
}

func TestEveryBondOncePerEightCycles(t *testing.T) {
	// The defining invariant from Fig. 1: "this pattern ensures that all
	// possible two qubit interactions on this 2D nearest neighbor
	// architecture are executed every 8 cycles."
	for _, grid := range [][2]int{{4, 4}, {6, 5}, {6, 6}, {7, 6}, {9, 5}} {
		l := Layout{Rows: grid[0], Cols: grid[1]}
		counts := map[Bond]int{}
		for cyc := 1; cyc <= 8; cyc++ {
			for _, b := range l.CZPattern(cyc) {
				counts[b]++
			}
		}
		all := l.AllBonds()
		if len(counts) != len(all) {
			t.Errorf("grid %v: %d distinct bonds over 8 cycles, want %d", grid, len(counts), len(all))
		}
		for _, b := range all {
			if counts[b] != 1 {
				t.Errorf("grid %v: bond %v applied %d times in 8 cycles, want 1", grid, b, counts[b])
			}
		}
	}
}

func TestPatternPeriodEight(t *testing.T) {
	l := Layout{Rows: 5, Cols: 5}
	for cyc := 1; cyc <= 8; cyc++ {
		a := l.CZPattern(cyc)
		b := l.CZPattern(cyc + 8)
		if len(a) != len(b) {
			t.Fatalf("cycle %d vs %d: lengths differ", cyc, cyc+8)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("cycle %d vs %d: bond %d differs", cyc, cyc+8, i)
			}
		}
	}
}

func TestSupremacyInitialHadamards(t *testing.T) {
	c := Supremacy(SupremacyOptions{Rows: 3, Cols: 3, Depth: 8, Seed: 1})
	for q := 0; q < 9; q++ {
		g := c.Gates[q]
		if g.Kind != KindH || g.Qubits[0] != q || g.Cycle != 0 {
			t.Fatalf("gate %d is %v, want h on qubit %d at cycle 0", q, g, q)
		}
	}
	skip := Supremacy(SupremacyOptions{Rows: 3, Cols: 3, Depth: 8, Seed: 1, SkipInitialH: true})
	if countKind(skip, KindH) != 0 {
		t.Errorf("SkipInitialH circuit contains %d Hadamards", countKind(skip, KindH))
	}
	if len(skip.Gates) != len(c.Gates)-9 {
		t.Errorf("SkipInitialH dropped %d gates, want 9", len(c.Gates)-len(skip.Gates))
	}
}

func TestSupremacySingleQubitGateRules(t *testing.T) {
	opts := SupremacyOptions{Rows: 5, Cols: 5, Depth: 30, Seed: 7}
	c := Supremacy(opts)
	l := Layout{Rows: 5, Cols: 5}
	n := l.N()

	inCZ := make([]map[int]bool, opts.Depth+1)
	inCZ[0] = map[int]bool{}
	for t0 := 1; t0 <= opts.Depth; t0++ {
		inCZ[t0] = map[int]bool{}
		for _, b := range l.CZPattern(t0) {
			inCZ[t0][b.A] = true
			inCZ[t0][b.B] = true
		}
	}

	first := make([]bool, n)
	last := make([]Kind, n)
	for q := range last {
		last[q] = -1
	}
	singles := map[[2]int]Kind{} // (cycle, qubit) -> kind
	for _, g := range c.Gates {
		switch g.Kind {
		case KindT, KindXHalf, KindYHalf:
			singles[[2]int{g.Cycle, g.Qubits[0]}] = g.Kind
		}
	}
	for t0 := 1; t0 <= opts.Depth; t0++ {
		for q := 0; q < n; q++ {
			k, has := singles[[2]int{t0, q}]
			shouldHave := inCZ[t0-1][q] && !inCZ[t0][q]
			if has != shouldHave {
				t.Fatalf("cycle %d qubit %d: single-gate presence %v, want %v", t0, q, has, shouldHave)
			}
			if !has {
				continue
			}
			if !first[q] {
				if k != KindT {
					t.Errorf("cycle %d qubit %d: first single-qubit gate is %v, want T", t0, q, k)
				}
				first[q] = true
			} else if k == last[q] {
				t.Errorf("cycle %d qubit %d: repeated single-qubit gate %v", t0, q, k)
			}
			last[q] = k
		}
	}
}

func TestSupremacyDeterministicPerSeed(t *testing.T) {
	a := Supremacy(SupremacyOptions{Rows: 4, Cols: 4, Depth: 20, Seed: 5})
	b := Supremacy(SupremacyOptions{Rows: 4, Cols: 4, Depth: 20, Seed: 5})
	if len(a.Gates) != len(b.Gates) {
		t.Fatal("same seed produced different circuits")
	}
	for i := range a.Gates {
		if a.Gates[i].String() != b.Gates[i].String() {
			t.Fatalf("gate %d differs: %v vs %v", i, a.Gates[i], b.Gates[i])
		}
	}
	c := Supremacy(SupremacyOptions{Rows: 4, Cols: 4, Depth: 20, Seed: 6})
	same := len(a.Gates) == len(c.Gates)
	if same {
		identical := true
		for i := range a.Gates {
			if a.Gates[i].String() != c.Gates[i].String() {
				identical = false
				break
			}
		}
		if identical {
			t.Error("different seeds produced identical circuits")
		}
	}
}

func TestSupremacyOmitFinalCZs(t *testing.T) {
	with := Supremacy(SupremacyOptions{Rows: 4, Cols: 4, Depth: 9, Seed: 2})
	without := Supremacy(SupremacyOptions{Rows: 4, Cols: 4, Depth: 9, Seed: 2, OmitFinalCZs: true})
	l := Layout{Rows: 4, Cols: 4}
	lastCZs := len(l.CZPattern(9))
	if len(with.Gates)-len(without.Gates) != lastCZs {
		t.Errorf("OmitFinalCZs removed %d gates, want %d", len(with.Gates)-len(without.Gates), lastCZs)
	}
}

func TestGridForQubits(t *testing.T) {
	cases := map[int][2]int{30: {6, 5}, 36: {6, 6}, 42: {7, 6}, 45: {9, 5}, 49: {7, 7}, 12: {4, 3}}
	for n, want := range cases {
		r, c := GridForQubits(n)
		if r*c != n {
			t.Errorf("GridForQubits(%d) = %dx%d, product %d", n, r, c, r*c)
		}
		if n <= 49 && (r != want[0] || c != want[1]) {
			t.Errorf("GridForQubits(%d) = %dx%d, want %dx%d", n, r, c, want[0], want[1])
		}
	}
}

// TestTable1GateCounts verifies the generated circuits are the size the
// paper reports in Table 1 (369/447/528/569 gates for 30/36/42/45 qubits at
// depth 25). Our CZ-pattern reconstruction differs from Google's exact
// layouts, so totals may deviate by a few gates; we require ±5%.
func TestTable1GateCounts(t *testing.T) {
	paper := map[int]int{30: 369, 36: 447, 42: 528, 45: 569}
	for n, want := range paper {
		r, c := GridForQubits(n)
		circ := Supremacy(SupremacyOptions{Rows: r, Cols: c, Depth: 25, Seed: 0})
		got := len(circ.Gates)
		lo := int(float64(want) * 0.95)
		hi := int(float64(want) * 1.05)
		if got < lo || got > hi {
			t.Errorf("%d qubits: %d gates, paper reports %d (allowing ±5%%)", n, got, want)
		}
		t.Logf("%d qubits: %d gates (paper: %d); %d CZ, %d T, %d X½, %d Y½, %d H",
			n, got, want, countKind(circ, KindCZ), countKind(circ, KindT),
			countKind(circ, KindXHalf), countKind(circ, KindYHalf), countKind(circ, KindH))
	}
}
