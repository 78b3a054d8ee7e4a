package dist_test

import (
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"qusim/internal/chaos"
	"qusim/internal/circuit"
	"qusim/internal/ckpt"
	"qusim/internal/dist"
	"qusim/internal/fsio"
	"qusim/internal/oocvec"
	"qusim/internal/schedule"
	"qusim/internal/statevec"
	"qusim/internal/telemetry"
)

// The tests that hold a paged run (oocvec, whose vector is a dist.Store and
// so imports dist) beside a distributed one live in this external package.

// supremacyPlan schedules a depth-16 (depth-12 on 10 qubits) supremacy
// circuit at l local qubits, or plans it gate by gate with a stage cut at
// every two-qubit gate: the internal tests' faultTestPlan (12, 9, 5),
// perGatePlan (12, 9, 5, per gate) and chaosTestPlan (10, 8, 7).
func supremacyPlan(t *testing.T, qubits, l int, seed int64, perGate bool) *schedule.Plan {
	t.Helper()
	depth := 16
	if qubits == 10 {
		depth = 12
	}
	r, c := circuit.GridForQubits(qubits)
	circ := circuit.Supremacy(circuit.SupremacyOptions{Rows: r, Cols: c, Depth: depth, Seed: seed})
	plan, err := schedule.Build(circ, schedule.DefaultOptions(l))
	if perGate {
		plan, err = schedule.PerGate(circ, l, func(g *circuit.Gate) bool { return g.K() == 2 })
	}
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// committedStages returns the boundaries of the snapshots committed in dir.
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

// TestCheckpointCadenceMatchesOocvec: both engines ask ckpt.Policy.Due, so a
// distributed run on 8 ranks and a paged run in 8 chunks of one plan commit
// snapshots of the same boundaries at every cadence — every EveryStages-th,
// never the end of the final stage.
func TestCheckpointCadenceMatchesOocvec(t *testing.T) {
	plan := supremacyPlan(t, 12, 9, 5, true)
	stages := plan.Stages()
	if stages < 4 {
		t.Fatalf("plan has %d stages, too few to tell cadences apart", stages)
	}
	for every := 1; every <= 3; every++ {
		var want []int
		for s := every; s < stages; s += every {
			want = append(want, s)
		}
		pol := func() *ckpt.Policy { return &ckpt.Policy{Dir: t.TempDir(), EveryStages: every, Keep: stages} }
		dpol, opol := pol(), pol()
		if _, err := dist.Run(plan, dist.Options{Ranks: 8, Init: dist.InitUniform, Checkpoint: dpol}); err != nil {
			t.Fatal(err)
		}
		v, err := oocvec.NewUniform(plan.N, plan.L, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = v.RunCheckpointed(plan, opol, false)
		v.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := committedStages(t, dpol.Dir); !slices.Equal(got, want) {
			t.Errorf("every %d: dist committed boundaries %v, want %v", every, got, want)
		}
		if got := committedStages(t, opol.Dir); !slices.Equal(got, want) {
			t.Errorf("every %d: oocvec committed boundaries %v, want %v", every, got, want)
		}
	}
}

// TestCheckpointMetricsLandInRunTelemetry: a run's ckpt.* metrics go to the
// telemetry the run carries — dist.Options.Telemetry, the paged vector's
// SetTelemetry — with nothing armed process-wide: each committed snapshot is
// one ckpt.commits and one ckpt.shard_writes per rank or, paged, one.
func TestCheckpointMetricsLandInRunTelemetry(t *testing.T) {
	check := func(t *testing.T, tel *telemetry.Telemetry, written, shards int) {
		t.Helper()
		if written == 0 {
			t.Fatal("no snapshot committed: the scenario tests nothing")
		}
		commits, writes := tel.Counter("ckpt.commits").Value(), tel.Counter("ckpt.shard_writes").Value()
		if commits != int64(written) || writes != int64(shards*written) {
			t.Errorf("written=%d ckpt.commits=%d ckpt.shard_writes=%d; want %d and %d",
				written, commits, writes, written, shards*written)
		}
	}
	t.Run("dist", func(t *testing.T) {
		tel := telemetry.New()
		res, err := dist.Run(supremacyPlan(t, 10, 8, 7, false), dist.Options{
			Ranks: 4, Init: dist.InitUniform, Telemetry: tel,
			Checkpoint: &ckpt.Policy{Dir: t.TempDir()},
		})
		if err != nil {
			t.Fatal(err)
		}
		check(t, tel, res.CheckpointsWritten, 4)
	})
	t.Run("paged", func(t *testing.T) {
		plan := supremacyPlan(t, 12, 9, 5, false)
		v, err := oocvec.NewUniform(plan.N, plan.L, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer v.Close()
		tel := telemetry.New()
		v.SetTelemetry(tel)
		_, written, err := v.RunCheckpointed(plan, &ckpt.Policy{Dir: t.TempDir()}, false)
		if err != nil {
			t.Fatal(err)
		}
		check(t, tel, written, 1)
	})
}

// TestTwoRunsEachOnTheirOwnFS: two checkpointed runs at once in one
// process, an 8-rank run whose snapshot disk is full for a window and a
// paged run on the real file system, each write through their own policy's
// file system only: the faulted run drops a boundary, the clean one none,
// and both end on Plan.Run's state.
func TestTwoRunsEachOnTheirOwnFS(t *testing.T) {
	plan := supremacyPlan(t, 12, 9, 5, false) // 12 qubits at l = 9: 8 ranks, or 8 chunks
	want := statevec.NewUniform(plan.N)
	if err := plan.Run(want); err != nil {
		t.Fatal(err)
	}
	v, err := oocvec.NewUniform(plan.N, plan.L, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	v.SetPrefetch(2)

	window := chaos.NewFS(chaos.DiskFaults{NoSpaceAt: 1, NoSpaceRun: 4}, nil)
	faulted := &ckpt.Policy{Dir: t.TempDir(), FS: window}
	clean := &ckpt.Policy{Dir: t.TempDir(), FS: fsio.OS{}}
	var (
		res     *dist.Result
		distErr error
		wg      sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		res, distErr = dist.Run(plan, dist.Options{Ranks: 8, Init: dist.InitUniform, GatherState: true, Checkpoint: faulted})
	}()
	_, written, pagedErr := v.RunCheckpointed(plan, clean, false)
	wg.Wait()

	if distErr != nil || pagedErr != nil {
		t.Fatalf("dist: %v, paged: %v", distErr, pagedErr)
	}
	if window.Stats().NoSpace == 0 || res.CheckpointsSkipped == 0 {
		t.Errorf("faulted run: %d ENOSPC injected, %d boundaries skipped; want both > 0",
			window.Stats().NoSpace, res.CheckpointsSkipped)
	}
	if v.CheckpointsSkipped() != 0 || written != plan.Stages()-1 {
		t.Errorf("clean run: %d written, %d skipped; want %d and 0", written, v.CheckpointsSkipped(), plan.Stages()-1)
	}
	if !slices.Equal(res.Amplitudes, want.Amps) {
		t.Error("faulted dist run differs from Plan.Run")
	}
	if got, err := v.Amplitudes(); err != nil || !slices.Equal(got, want.Amps) {
		t.Errorf("clean paged run differs from Plan.Run (%v)", err)
	}
}

// TestPagedStoreRefusals: a paged store is the one rank of a complex128 run
// without a comm deadline. RunAt refuses a single-precision run, more ranks
// and a deadline before it touches the file, which still holds the state it
// was created in.
func TestPagedStoreRefusals(t *testing.T) {
	plan := supremacyPlan(t, 12, 9, 5, false)
	v, err := oocvec.NewUniform(plan.N, plan.L, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	for name, run := range map[string]func() (*dist.Result, error){
		"complex64": func() (*dist.Result, error) { return dist.RunAt[complex64](plan, dist.Options{Ranks: 1, Store: v}) },
		"ranks":     func() (*dist.Result, error) { return dist.Run(plan, dist.Options{Ranks: 8, Store: v}) },
		"deadline": func() (*dist.Result, error) {
			return dist.Run(plan, dist.Options{Ranks: 1, Store: v, CommDeadline: time.Minute})
		},
	} {
		if _, err := run(); err == nil || !strings.Contains(err.Error(), "paged store") {
			t.Errorf("%s: err = %v, want the paged store refused", name, err)
		}
	}
	if got, err := v.Amplitudes(); err != nil || !slices.Equal(got, statevec.NewUniform(plan.N).Amps) {
		t.Errorf("a refused run touched the file (%v)", err)
	}
}
