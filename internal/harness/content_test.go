package harness

import (
	"bytes"
	"strings"
	"testing"

	"qusim/internal/kernels"
)

// Content checks: the quick-mode outputs must contain the paper-comparison
// anchors each experiment promises.

func runQuick(t *testing.T, id string) string {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	var buf bytes.Buffer
	if err := e.Run(&buf, Config{Quick: true}); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return buf.String()
}

func TestFig1ShowsAllPatternsAndCoverage(t *testing.T) {
	out := runQuick(t, "fig1")
	for i := 1; i <= 8; i++ {
		if !strings.Contains(out, "("+string(rune('0'+i))+")") {
			t.Errorf("fig1 missing pattern (%d)", i)
		}
	}
	if !strings.Contains(out, "exactly once per 8 cycles") {
		t.Error("fig1 missing the coverage statement")
	}
}

func TestFig2ShowsRooflineAndPaperPoints(t *testing.T) {
	out := runQuick(t, "fig2a")
	for _, want := range []string{"166.2", "OI [F/B]", "naive", "in-place", "split", "this host (" + kernels.ISA() + ")"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig2a missing %q", want)
		}
	}
	out = runQuick(t, "fig2b")
	for _, want := range []string{"878.7", "3133.4"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig2b missing %q", want)
		}
	}
}

func TestFig5bShowsPaperSwapColumn(t *testing.T) {
	out := runQuick(t, "fig5b")
	for _, want := range []string{"paper swaps", "49", "median hard", "worst case"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig5b missing %q", want)
		}
	}
}

func TestTable1ShowsPaperClusterCounts(t *testing.T) {
	out := runQuick(t, "table1")
	for _, want := range []string{"kmax=3", "kmax=5", "(82)", "(36)"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 missing %q", want)
		}
	}
}

func TestTable2ShowsBothSchemes(t *testing.T) {
	out := runQuick(t, "table2")
	for _, want := range []string{"552.61", "scheduled (this work)", "per-gate [5]", "fewer comm steps"} {
		if !strings.Contains(out, want) {
			t.Errorf("table2 missing %q", want)
		}
	}
}

func TestTunerReportsPassCosts(t *testing.T) {
	out := runQuick(t, "tuner")
	for _, want := range []string{kernels.ISA() + " kernels", "pass [ms]", "relative cost", "compiled-in"} {
		if !strings.Contains(out, want) {
			t.Errorf("tuner missing %q", want)
		}
	}
}

func TestAblationListsConfigurations(t *testing.T) {
	out := runQuick(t, "ablation")
	for _, want := range []string{"T specialization", "lowest-order", "clustering", "heuristic mapping"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation missing %q", want)
		}
	}
}

func TestEdison36ValidatesEntropy(t *testing.T) {
	out := runQuick(t, "edison36")
	for _, want := range []string{"99", "entropy", "Porter-Thomas"} {
		if !strings.Contains(out, want) {
			t.Errorf("edison36 missing %q", want)
		}
	}
}

func TestFig6ShowsPenaltyColumns(t *testing.T) {
	out := runQuick(t, "fig6")
	for _, want := range []string{"penalty", "2.00x", "4.00x", "host-measured"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig6 missing %q", want)
		}
	}
}

func TestFig7ShowsModelAndHostSections(t *testing.T) {
	out := runQuick(t, "fig7")
	for _, want := range []string{"modeled speedup", "host-measured", "k=5"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig7 missing %q", want)
		}
	}
}

func TestFig8ShowsBothScales(t *testing.T) {
	out := runQuick(t, "fig8")
	for _, want := range []string{"1024", "4096", "comm steps", "real runs"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig8 missing %q", want)
		}
	}
}

func TestEmulationExperimentVerifiesAgreement(t *testing.T) {
	out := runQuick(t, "emulation")
	for _, want := range []string{"FFT emulation", "speedup", "max amplitude difference"} {
		if !strings.Contains(out, want) {
			t.Errorf("emulation missing %q", want)
		}
	}
}
