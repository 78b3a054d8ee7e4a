package dist

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"qusim/internal/circuit"
	"qusim/internal/ckpt"
	"qusim/internal/mpi"
	"qusim/internal/schedule"
)

// otherPlan builds a different circuit (same geometry, different seed) so
// its fingerprint differs from faultTestPlan's.
func otherPlan(t *testing.T) *schedule.Plan {
	t.Helper()
	r, c := circuit.GridForQubits(12)
	circ := circuit.Supremacy(circuit.SupremacyOptions{Rows: r, Cols: c, Depth: 16, Seed: 99})
	plan, err := schedule.Build(circ, schedule.DefaultOptions(9))
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// The checkpoint/restart contract: a run that crashes, corrupts a payload,
// or resumes in a new process must land on amplitudes bitwise identical to
// an uninterrupted run — restored shards are exact, and the kernels are
// deterministic, so recovery is invisible in the output.

func cleanReference(t *testing.T) *Result {
	t.Helper()
	res, err := Run(faultTestPlan(t), Options{Ranks: 8, Init: InitUniform, GatherState: true})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func assertBitwiseEqual(t *testing.T, want, got *Result) {
	t.Helper()
	if len(want.Amplitudes) != len(got.Amplitudes) {
		t.Fatalf("state sizes differ: %d vs %d", len(want.Amplitudes), len(got.Amplitudes))
	}
	for i := range want.Amplitudes {
		if want.Amplitudes[i] != got.Amplitudes[i] {
			t.Fatalf("amplitude %d differs: %v vs %v", i, want.Amplitudes[i], got.Amplitudes[i])
		}
	}
}

func TestCheckpointedRunMatchesClean(t *testing.T) {
	clean := cleanReference(t)
	dir := t.TempDir()
	res, err := Run(faultTestPlan(t), Options{
		Ranks: 8, Init: InitUniform, GatherState: true,
		Checkpoint: &ckpt.Policy{Dir: dir},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CheckpointsWritten == 0 {
		t.Fatal("no checkpoints committed")
	}
	if res.Restarts != 0 || res.CheckpointsRestored != 0 {
		t.Errorf("clean run reports restarts=%d restored=%d", res.Restarts, res.CheckpointsRestored)
	}
	assertBitwiseEqual(t, clean, res)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	manifests := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "manifest-") {
			manifests++
		}
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Errorf("stray temp file %s survived", e.Name())
		}
	}
	if manifests == 0 || manifests > 2 {
		t.Errorf("retention kept %d manifests, want 1–2", manifests)
	}
}

// perGatePlan is faultTestPlan's circuit under the per-gate scheme of [19]
// with CZ specialization: a plan of many one-qubit swaps, each its own stage.
func perGatePlan(t *testing.T) *schedule.Plan {
	t.Helper()
	r, c := circuit.GridForQubits(12)
	circ := circuit.Supremacy(circuit.SupremacyOptions{Rows: r, Cols: c, Depth: 16, Seed: 5})
	plan, err := schedule.PerGate(circ, 9, func(g *circuit.Gate) bool { return g.K() == 2 })
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestRecoveryFromRankCrash(t *testing.T) {
	for name, plan := range map[string]*schedule.Plan{"scheduled": faultTestPlan(t), "per-gate": perGatePlan(t)} {
		t.Run(name, func(t *testing.T) {
			clean, err := Run(plan, Options{Ranks: 8, Init: InitUniform, GatherState: true})
			if err != nil {
				t.Fatal(err)
			}
			crash := &mpi.CrashFault{Rank: 3, Collective: 2}
			res, err := Run(plan, Options{
				Ranks: 8, Init: InitUniform, GatherState: true,
				Faults:     &mpi.FaultPlan{Crash: crash},
				Checkpoint: &ckpt.Policy{Dir: t.TempDir()},
			})
			if err != nil {
				t.Fatalf("crash was not recovered: %v", err)
			}
			if !crash.Fired() {
				t.Fatal("crash fault never fired — the scenario tested nothing")
			}
			if res.FaultEvents != 1 {
				t.Errorf("FaultEvents = %d, want exactly the injected crash", res.FaultEvents)
			}
			if res.Restarts != 1 {
				t.Errorf("Restarts = %d, want 1", res.Restarts)
			}
			assertBitwiseEqual(t, clean, res)
		})
	}
}

func TestRecoveryFromPayloadCorruption(t *testing.T) {
	clean := cleanReference(t)
	dir := t.TempDir()
	corrupt := &mpi.CorruptFault{Rank: 5, Exchange: 0}
	res, err := Run(faultTestPlan(t), Options{
		Ranks: 8, Init: InitUniform, GatherState: true,
		Faults:     &mpi.FaultPlan{Corrupt: corrupt},
		Checkpoint: &ckpt.Policy{Dir: dir}, // checksums implied
	})
	if err != nil {
		t.Fatalf("corruption was not recovered: %v", err)
	}
	if !corrupt.Fired() {
		t.Fatal("corrupt fault never fired — the scenario tested nothing")
	}
	if res.Restarts != 1 {
		t.Errorf("Restarts = %d, want 1", res.Restarts)
	}
	assertBitwiseEqual(t, clean, res)
}

func TestResumeContinuesAcrossProcesses(t *testing.T) {
	// Simulate a process restart: a completed run leaves checkpoints behind
	// (retention keeps the newest), and a second Run with Resume picks up
	// the newest snapshot instead of re-initializing, finishing on
	// identical amplitudes.
	clean := cleanReference(t)
	dir := t.TempDir()
	opts := Options{
		Ranks: 8, Init: InitUniform, GatherState: true,
		Checkpoint: &ckpt.Policy{Dir: dir},
	}
	if _, err := Run(faultTestPlan(t), opts); err != nil {
		t.Fatal(err)
	}
	opts.Resume = true
	res, err := Run(faultTestPlan(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.CheckpointsRestored != 1 {
		t.Errorf("CheckpointsRestored = %d, want 1", res.CheckpointsRestored)
	}
	assertBitwiseEqual(t, clean, res)
}

func TestResumeRejectsForeignCheckpoints(t *testing.T) {
	// A directory holding another plan's snapshots must not be replayed
	// into this run: the plan fingerprint gates restore, so the run starts
	// fresh and still produces the right answer.
	dir := t.TempDir()
	if _, err := Run(faultTestPlan(t), Options{
		Ranks: 8, Init: InitUniform,
		Checkpoint: &ckpt.Policy{Dir: dir},
	}); err != nil {
		t.Fatal(err)
	}
	other := otherPlan(t)
	clean, err := Run(other, Options{Ranks: 8, Init: InitUniform, GatherState: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(other, Options{
		Ranks: 8, Init: InitUniform, GatherState: true,
		Checkpoint: &ckpt.Policy{Dir: dir},
		Resume:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CheckpointsRestored != 0 {
		t.Errorf("restored %d foreign checkpoints", res.CheckpointsRestored)
	}
	assertBitwiseEqual(t, clean, res)
}

func TestCheckpointCadenceReducesSnapshots(t *testing.T) {
	everyStage, err := Run(faultTestPlan(t), Options{
		Ranks: 8, Init: InitUniform,
		Checkpoint: &ckpt.Policy{Dir: t.TempDir()},
	})
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := Run(faultTestPlan(t), Options{
		Ranks: 8, Init: InitUniform,
		Checkpoint: &ckpt.Policy{Dir: t.TempDir(), EveryStages: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sparse.CheckpointsWritten >= everyStage.CheckpointsWritten {
		t.Errorf("EveryStages=2 wrote %d snapshots vs %d at cadence 1",
			sparse.CheckpointsWritten, everyStage.CheckpointsWritten)
	}
	if sparse.CheckpointsWritten == 0 {
		t.Error("sparse cadence wrote no snapshots at all")
	}
}

// committedStages returns, in order, the stage of every manifest committed
// in dir, read from its name.
func committedStages(t *testing.T, dir string) []int {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "manifest-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	var stages []int
	for _, p := range paths {
		var stage int
		if _, err := fmt.Sscanf(filepath.Base(p), "manifest-%06d.json", &stage); err != nil {
			t.Fatal(err)
		}
		stages = append(stages, stage)
	}
	slices.Sort(stages)
	return stages
}

func TestPrunedDirectoryContainsStrayFreeState(t *testing.T) {
	// After a crash-and-recover run the directory holds only committed
	// snapshot files: manifests with their shards, no temp strays.
	dir := t.TempDir()
	if _, err := Run(faultTestPlan(t), Options{
		Ranks: 8, Init: InitUniform,
		Faults:     &mpi.FaultPlan{Crash: &mpi.CrashFault{Rank: 0, Collective: 4}},
		Checkpoint: &ckpt.Policy{Dir: dir, Keep: 1},
	}); err != nil {
		t.Fatal(err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, ".tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Errorf("stray temp files after recovery: %v", matches)
	}
}
