package verify

import (
	"os"
	"strings"
	"testing"

	"qusim/internal/kernels"
	"qusim/internal/mpi"
	"qusim/internal/schedule"
)

// goldenNames renders row names the way the golden file stores them: the two
// per-gate rows are named after the kernel this machine runs, so the ISA is
// replaced by a placeholder.
func goldenNames(backends ...Backend) []string {
	out := make([]string, len(backends))
	for i, b := range backends {
		out[i] = strings.Replace(b.Name(), "/"+kernels.ISA(), "/<isa>", 1)
	}
	return out
}

// readGolden parses a golden file into its [section] → lines map.
func readGolden(t *testing.T, path string) map[string][]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string][]string{}
	var cur string
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "["):
			cur = strings.Trim(line, "[]")
			sections[cur] = nil
		default:
			sections[cur] = append(sections[cur], line)
		}
	}
	return sections
}

// TestMatrixRowNamesGolden pins the row names of every matrix: enrolling,
// renaming or dropping a row is a reviewed edit of testdata/matrix.golden,
// never a side effect of refactoring how rows are built. The [qchaos] section
// is held by cmd/qchaos's own test against the same file.
func TestMatrixRowNamesGolden(t *testing.T) {
	_, quick := Matrix(true)
	_, full := Matrix(false)
	ref, blocked, ref32, blocked32 := MatrixBlocked()
	sections := []struct {
		name string
		rows []string
	}{
		{"Matrix(quick)", goldenNames(quick...)},
		{"Matrix(full)", goldenNames(full...)},
		{"MatrixF32(quick)", goldenNames(MatrixF32(true)...)},
		{"MatrixF32(full)", goldenNames(MatrixF32(false)...)},
		{"MatrixBlocked", goldenNames(append(append(append([]Backend{ref}, blocked...), ref32), blocked32...)...)},
	}
	golden := readGolden(t, "testdata/matrix.golden")
	for _, s := range sections {
		if got, want := strings.Join(s.rows, "\n"), strings.Join(golden[s.name], "\n"); got != want {
			t.Errorf("[%s] rows changed:\ngot:\n%s\nwant:\n%s", s.name, got, want)
		}
	}
}

// TestPaperTwinOfEveryPlanRow: the twin of any plan-executing row — the
// built-in ones and one enrolled from outside through PlanRow — is the same
// row scheduled with schedule.PaperCosts, and a row that executes no plan has
// no twin.
func TestPaperTwinOfEveryPlanRow(t *testing.T) {
	c := Random(RandomOptions{Qubits: 8, Gates: 48, Seed: 5, DenseEntanglers: true})
	want, err := Naive().Run(c)
	if err != nil {
		t.Fatal(err)
	}
	var seen *schedule.Plan
	recording := PlanRow("recording", 2, func(plan *schedule.Plan) ([]complex128, error) {
		seen = plan
		return runPerOp[complex128](plan)
	})
	rows := []Backend{
		Scheduled(2), Distributed(4), DistributedFaulty(4, mpi.DefaultFaults(3)), OutOfCore(2, 3),
		F32Scheduled(2), PerOp(2), F32PerOp(2), recording,
	}
	for _, row := range rows {
		twin := PaperTwin(row)
		if twin.Name() != row.Name()+"+paper" {
			t.Errorf("twin of %s is named %s", row.Name(), twin.Name())
		}
		if got := twin.(*planBackend).costs; got != schedule.PaperCosts() {
			t.Errorf("%s schedules with %+v, want PaperCosts", twin.Name(), got)
		}
		if got := row.(*planBackend).costs; got != (schedule.CostTable{}) {
			t.Errorf("PaperTwin repriced the original row %s: %+v", row.Name(), got)
		}
		got, err := twin.Run(c)
		if err != nil {
			t.Fatalf("%s: %v", twin.Name(), err)
		}
		if d := MaxAmpDelta(want, got); d > 5e-4 {
			t.Errorf("%s deviates from the naive reference by %g", twin.Name(), d)
		}
	}

	paper, err := schedule.Build(c, scheduleOptions(c.N-2, schedule.PaperCosts()))
	if err != nil {
		t.Fatal(err)
	}
	if seen.StructureFingerprint() != paper.StructureFingerprint() {
		t.Error("the twin of a PlanRow did not execute the PaperCosts plan")
	}
	if _, err := recording.Run(c); err != nil {
		t.Fatal(err)
	}
	if seen.StructureFingerprint() == paper.StructureFingerprint() {
		t.Error("default and PaperCosts plans coincide on this circuit: the test distinguishes nothing")
	}

	for _, row := range []Backend{Naive(), Kernel(), F32(), Permuted(7), Baseline(4)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PaperTwin(%s) did not panic", row.Name())
				}
			}()
			PaperTwin(row)
		}()
	}
}
