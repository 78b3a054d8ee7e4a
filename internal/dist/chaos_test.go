package dist

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"qusim/internal/chaos"
	"qusim/internal/circuit"
	"qusim/internal/ckpt"
	"qusim/internal/mpi"
	"qusim/internal/schedule"
	"qusim/internal/telemetry"
)

// Composed-fault scenarios: the degradation policies (per-class restart
// accounting, crash inside the checkpoint protocol itself, snapshot
// corruption fallback, ENOSPC-at-any-failpoint skip) must keep every run
// bitwise identical to a clean one. Graceful degradation that changes the
// answer is just a slower way to be wrong.

// chaosTestPlan is a smaller plan than faultTestPlan (4 ranks, 10 qubits)
// so the ENOSPC sweep — one full run per write-op failpoint — stays cheap.
func chaosTestPlan(t *testing.T) *schedule.Plan {
	t.Helper()
	r, c := circuit.GridForQubits(10)
	circ := circuit.Supremacy(circuit.SupremacyOptions{Rows: r, Cols: c, Depth: 12, Seed: 7})
	plan, err := schedule.Build(circ, schedule.DefaultOptions(8))
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestRestartClassCounters pins the per-class restart partition: each hard
// fault class surfaces as exactly its own counter (Result field and
// telemetry), recovery restores bitwise, and the classes never bleed into
// each other.
func TestRestartClassCounters(t *testing.T) {
	clean := cleanReference(t)
	cases := []struct {
		name   string
		faults *mpi.FaultPlan
		fired  func(*mpi.FaultPlan) bool
		field  func(*Result) int
		metric string
	}{
		{
			name:   "rank-dead",
			faults: &mpi.FaultPlan{Crash: &mpi.CrashFault{Rank: 3, Collective: 2}},
			fired:  func(f *mpi.FaultPlan) bool { return f.Crash.Fired() },
			field:  func(r *Result) int { return r.RestartsRankDead },
			metric: "dist.restart_rank_dead",
		},
		{
			name:   "corrupt",
			faults: &mpi.FaultPlan{Corrupt: &mpi.CorruptFault{Rank: 5, Exchange: 0}},
			fired:  func(f *mpi.FaultPlan) bool { return f.Corrupt.Fired() },
			field:  func(r *Result) int { return r.RestartsCorrupt },
			metric: "dist.restart_corrupt",
		},
		{
			name:   "stalled",
			faults: &mpi.FaultPlan{Stall: &mpi.StallFault{Rank: 2, Collective: 2, Duration: 2 * time.Second}},
			fired:  func(f *mpi.FaultPlan) bool { return f.Stall.Fired() },
			field:  func(r *Result) int { return r.RestartsStalled },
			metric: "dist.restart_stalled",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tel := telemetry.New()
			res, err := Run(faultTestPlan(t), Options{
				Ranks: 8, Init: InitUniform, GatherState: true,
				Faults:       tc.faults,
				Checkpoint:   &ckpt.Policy{Dir: t.TempDir()},
				CommDeadline: 250 * time.Millisecond,
				Telemetry:    tel,
			})
			if err != nil {
				t.Fatalf("%s was not recovered: %v", tc.name, err)
			}
			if !tc.fired(tc.faults) {
				t.Fatalf("%s fault never fired — the scenario tested nothing", tc.name)
			}
			if got := tc.field(res); got != 1 {
				t.Errorf("class counter = %d, want 1", got)
			}
			if res.Restarts != res.RestartsCorrupt+res.RestartsRankDead+res.RestartsStalled+res.RestartsIO {
				t.Errorf("class partition %d+%d+%d+%d does not sum to Restarts=%d",
					res.RestartsCorrupt, res.RestartsRankDead, res.RestartsStalled, res.RestartsIO, res.Restarts)
			}
			if got := tel.Counter(tc.metric).Value(); got != 1 {
				t.Errorf("%s = %d, want 1", tc.metric, got)
			}
			if got := tel.Counter("dist.attempts").Value(); got != 2 {
				t.Errorf("dist.attempts = %d, want 2", got)
			}
			if tel.Histogram("dist.recovery_latency_ns").Count() == 0 {
				t.Error("recovery latency histogram has no observations")
			}
			assertBitwiseEqual(t, clean, res)
		})
	}
}

// TestCrashInsideCheckpointCollective kills a rank inside the snapshot
// protocol's own collectives — the window where naive recovery logic is
// most likely to see a half-taken checkpoint. Barrier #0 is the
// shard-durability barrier (nothing committed yet: recovery starts fresh),
// Barrier #1 is the publish barrier (rank 0 has committed: recovery
// restores the snapshot whose commit the victim never saw).
func TestCrashInsideCheckpointCollective(t *testing.T) {
	clean := cleanReference(t)
	cases := []struct {
		name         string
		barrier      int
		wantRestored int
	}{
		{"before-commit", 0, 0},
		{"after-commit", 1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			crash := &mpi.CrashFault{Rank: 2, Collective: tc.barrier, Label: "Barrier"}
			res, err := Run(faultTestPlan(t), Options{
				Ranks: 8, Init: InitUniform, GatherState: true,
				Faults:     &mpi.FaultPlan{Crash: crash},
				Checkpoint: &ckpt.Policy{Dir: t.TempDir()},
			})
			if err != nil {
				t.Fatalf("crash in checkpoint collective was not recovered: %v", err)
			}
			if !crash.Fired() {
				t.Fatal("labeled crash never fired — the scenario tested nothing")
			}
			if res.RestartsRankDead != 1 {
				t.Errorf("RestartsRankDead = %d, want 1", res.RestartsRankDead)
			}
			if res.CheckpointsRestored != tc.wantRestored {
				t.Errorf("CheckpointsRestored = %d, want %d", res.CheckpointsRestored, tc.wantRestored)
			}
			assertBitwiseEqual(t, clean, res)
		})
	}
}

// TestCorruptedNewestSnapshotFallsBack resumes from a directory whose
// newest snapshot has been corrupted on disk after commit: the restore
// walk must reject it shard-by-shard and fall back to the older snapshot,
// finishing bitwise identical. (A restore that picked the corrupt newest
// would abort the run — ReadShard failures are not recoverable — so plain
// success proves the fallback.)
func TestCorruptedNewestSnapshotFallsBack(t *testing.T) {
	clean := cleanReference(t)
	dir := t.TempDir()
	opts := Options{
		Ranks: 8, Init: InitUniform, GatherState: true,
		Checkpoint: &ckpt.Policy{Dir: dir, Keep: 2},
	}
	if _, err := Run(faultTestPlan(t), opts); err != nil {
		t.Fatal(err)
	}

	committed := committedStages(t, dir)
	if len(committed) < 2 {
		t.Fatalf("want ≥2 retained manifests to fall back across, have %v", committed)
	}
	newest := committed[len(committed)-1]
	shards, err := filepath.Glob(filepath.Join(dir, fmt.Sprintf("shard-%06d-r*.ckpt", newest)))
	if err != nil || len(shards) == 0 {
		t.Fatalf("no shards found for newest stage %d", newest)
	}
	for _, p := range shards {
		f, err := os.OpenFile(p, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte{0xff}, 100); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	opts.Resume = true
	res, err := Run(faultTestPlan(t), opts)
	if err != nil {
		t.Fatalf("resume with corrupt newest snapshot failed instead of falling back: %v", err)
	}
	if res.CheckpointsRestored != 1 {
		t.Errorf("CheckpointsRestored = %d, want 1 (the older snapshot)", res.CheckpointsRestored)
	}
	assertBitwiseEqual(t, clean, res)
}

// TestENOSPCAtEveryFailpointNeverAborts is the regression sweep for the
// full-disk degradation contract: a probe run learns how many write-family
// ops the checkpoint path performs, then the disk is made permanently full
// starting at every single one of those ops in turn. Whatever the
// failpoint — shard CreateTemp, payload write, fsync, manifest rename —
// the run must complete without error, skip (not abort on) the starved
// checkpoints, and stay bitwise identical.
func TestENOSPCAtEveryFailpointNeverAborts(t *testing.T) {
	plan := chaosTestPlan(t)
	clean, err := Run(plan, Options{Ranks: 4, Init: InitUniform, GatherState: true})
	if err != nil {
		t.Fatal(err)
	}

	probe := chaos.NewFS(chaos.DiskFaults{}, nil)
	if _, err := Run(plan, Options{
		Ranks: 4, Init: InitUniform,
		Checkpoint: &ckpt.Policy{Dir: t.TempDir(), FS: probe},
	}); err != nil {
		t.Fatal(err)
	}
	writeOps := int(probe.Stats().WriteOps)
	if writeOps == 0 {
		t.Fatal("probe counted no write ops — the checkpoint path is not on the seam")
	}

	skippedSomewhere := false
	for k := 1; k <= writeOps; k++ {
		fs := chaos.NewFS(chaos.DiskFaults{NoSpaceAt: k, NoSpaceRun: 1 << 30}, nil)
		tel := telemetry.New()
		res, err := Run(plan, Options{
			Ranks: 4, Init: InitUniform, GatherState: true,
			Checkpoint: &ckpt.Policy{Dir: t.TempDir(), FS: fs},
			Telemetry:  tel,
		})
		if err != nil {
			t.Fatalf("ENOSPC from write op %d on aborted the run: %v", k, err)
		}
		if fs.Stats().NoSpace > 0 {
			if res.CheckpointsSkipped == 0 {
				t.Errorf("failpoint %d: ENOSPC injected but no checkpoint reported skipped", k)
			}
			if tel.Counter("ckpt.skipped").Value() == 0 {
				t.Errorf("failpoint %d: ckpt.skipped telemetry never fired", k)
			}
			skippedSomewhere = true
		}
		assertBitwiseEqual(t, clean, res)
	}
	if !skippedSomewhere {
		t.Error("no failpoint ever starved a checkpoint — the sweep exercised nothing")
	}
}

// TestENOSPCWindowPrunesAndRecovers: a transient full disk (a bounded op
// window hitting the first of several checkpoints) must at worst skip the
// starved checkpoint and keep committing once space returns — degradation
// is local to the window, not sticky for the rest of the run.
func TestENOSPCWindowPrunesAndRecovers(t *testing.T) {
	clean := cleanReference(t)
	fs := chaos.NewFS(chaos.DiskFaults{NoSpaceAt: 3, NoSpaceRun: 4}, nil)
	res, err := Run(faultTestPlan(t), Options{
		Ranks: 8, Init: InitUniform, GatherState: true,
		Checkpoint: &ckpt.Policy{Dir: t.TempDir(), Keep: 3, FS: fs},
	})
	if err != nil {
		t.Fatalf("transient ENOSPC window aborted the run: %v", err)
	}
	if fs.Stats().NoSpace == 0 {
		t.Fatal("window never fired — the scenario tested nothing")
	}
	if res.CheckpointsWritten == 0 {
		t.Error("no checkpoint committed even after the window passed")
	}
	assertBitwiseEqual(t, clean, res)
}

// TestRecoveryFromTransientReadOnRestore: a resumed run whose first shard
// read after the restore walk fails transiently — a rank's restore, which
// wraps it in ckpt.ErrInvalid — restarts once, counted in the I/O class,
// and ends bitwise identical to a clean run.
func TestRecoveryFromTransientReadOnRestore(t *testing.T) {
	plan := faultTestPlan(t)
	clean := cleanReference(t)
	dir := t.TempDir()
	if _, err := Run(plan, Options{Ranks: 8, Init: InitUniform, Checkpoint: &ckpt.Policy{Dir: dir}}); err != nil {
		t.Fatal(err)
	}
	// The restore walk's reads: the window opens on the first read after it.
	probe := chaos.NewFS(chaos.DiskFaults{}, nil)
	meta := ckpt.Meta{PlanHash: plan.Fingerprint(), N: plan.N, L: plan.L, Ranks: 8}
	if ckpt.NewWriter(&ckpt.Policy{Dir: dir, FS: probe}, meta, nil).FindRestorable() == nil {
		t.Fatal("the first run left no restorable snapshot")
	}
	fs := chaos.NewFS(chaos.DiskFaults{ReadErrAt: int(probe.Stats().ReadOps) + 1}, nil)
	tel := telemetry.New()
	res, err := Run(plan, Options{
		Ranks: 8, Init: InitUniform, GatherState: true, Resume: true,
		Checkpoint: &ckpt.Policy{Dir: dir, FS: fs},
		Telemetry:  tel,
	})
	if err != nil {
		t.Fatalf("a transient read while a rank restored was not recovered: %v", err)
	}
	if fs.Stats().ReadErrors != 1 {
		t.Fatalf("%d read errors injected, want 1", fs.Stats().ReadErrors)
	}
	if res.Restarts != 1 || res.RestartsIO != 1 || tel.Counter("dist.restart_io").Value() != 1 {
		t.Errorf("Restarts = %d, RestartsIO = %d, dist.restart_io = %d; want 1 each",
			res.Restarts, res.RestartsIO, tel.Counter("dist.restart_io").Value())
	}
	if res.CheckpointsRestored != 2 {
		t.Errorf("CheckpointsRestored = %d, want 2: both attempts start from the snapshot", res.CheckpointsRestored)
	}
	assertBitwiseEqual(t, clean, res)
}
