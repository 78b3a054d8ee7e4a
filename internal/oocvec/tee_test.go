package oocvec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"qusim/internal/chaos"
	"qusim/internal/ckpt"
	"qusim/internal/kernels"
	"qusim/internal/schedule"
	"qusim/internal/statevec"
	"qusim/internal/telemetry"
)

// The snapshots RunCheckpointed takes are teed from the prefetch reader of
// the stage that follows each boundary. These tests hold them to the
// snapshot a standalone Checkpoint of the same boundary writes, to the
// resume guarantee, and to the ENOSPC policy.

// keepAll is a retention no test plan reaches, so every boundary's files
// survive to be compared.
const keepAll = 1 << 10

// standaloneSnapshots runs the plan a stage at a time and, at every boundary
// a checkpointed run snapshots, takes the snapshot with Checkpoint — a pass
// of its own over the file between two stages.
func standaloneSnapshots(t *testing.T, n, l int, plan *schedule.Plan, dir string) {
	t.Helper()
	v, err := NewUniform(n, l, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	stages, err := (&schedule.Shard[complex128]{L: l}).Stages(plan, 0)
	if err != nil {
		t.Fatal(err)
	}
	for s := range stages {
		if s > 0 {
			if err := v.Checkpoint(dir, plan, s, keepAll); err != nil {
				t.Fatal(err)
			}
		}
		if err := runStage(v, &stages[s]); err != nil {
			t.Fatal(err)
		}
	}
}

// runStage executes one stage as the walk does: its pass, then its
// exchange; and records the vector's memory as dist.RunAt does after a run.
func runStage(v *Vector, st *schedule.Stage[complex128]) error {
	if err := v.Stage(st, nil); err != nil {
		return err
	}
	if st.Exchanges() {
		v.Exchange(st)
	}
	kernels.ObservePages(v.tel.t, v.Buffers()...)
	return nil
}

// walk executes the stages of plan from start on, as an attempt resumed at
// that boundary does, outside dist's attempt loop.
func (v *Vector) walk(plan *schedule.Plan, start int) error {
	stages, err := (&schedule.Shard[complex128]{L: v.L}).Stages(plan, start)
	if err != nil {
		return err
	}
	return schedule.Walk(plan, stages, start, nil, v)
}

// snapshotFiles returns the names of dir's entries, failing on a temp file.
func snapshotFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Fatalf("temp file %s left in the snapshot directory", e.Name())
		}
		names = append(names, e.Name())
	}
	return names
}

// TestTeedSnapshotsEqualStandalone: at every prefetch depth, the snapshot of
// every boundary — the ones teed from a stage that closes with a swap and
// the last one, teed from the final stage, which writes back in place — is
// file for file the snapshot Checkpoint writes, and a run restored from it
// ends bitwise equal to Plan.Run.
func TestTeedSnapshotsEqualStandalone(t *testing.T) {
	n, l := 10, 6
	_, plan := buildPlan(t, n, l, 16, 4)
	if plan.Stages() < 3 {
		t.Fatalf("plan has %d stages; the scenario needs a boundary before a swap stage and one before the final stage", plan.Stages())
	}
	want := planRunAmps(t, plan)
	refDir := t.TempDir()
	standaloneSnapshots(t, n, l, plan, refDir)
	refFiles := snapshotFiles(t, refDir)
	if len(refFiles) != 2*(plan.Stages()-1) {
		t.Fatalf("reference run left %v, want a shard and a manifest per inner boundary", refFiles)
	}

	for _, depth := range []int{0, 1, 4} {
		t.Run(fmt.Sprintf("prefetch%d", depth), func(t *testing.T) {
			dir := t.TempDir()
			got := oocAmps(t, n, l, func(v *Vector) error {
				v.SetPrefetch(depth)
				_, written, err := v.RunCheckpointed(plan, &ckpt.Policy{Dir: dir, Keep: keepAll}, false)
				if written != plan.Stages()-1 {
					t.Errorf("%d snapshots committed, want %d", written, plan.Stages()-1)
				}
				return err
			})
			if !slices.Equal(got, want) {
				t.Fatal("checkpointed run differs from Plan.Run")
			}
			if files := snapshotFiles(t, dir); !slices.Equal(files, refFiles) {
				t.Fatalf("snapshot directory holds %v, want %v", files, refFiles)
			}
			for _, name := range refFiles {
				teed, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				ref, err := os.ReadFile(filepath.Join(refDir, name))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(teed, ref) {
					t.Errorf("%s: teed snapshot differs from the standalone Checkpoint's", name)
				}
			}

			// Resume from every boundary, not only the newest: drop the
			// newer manifests one by one.
			for s := plan.Stages() - 1; s >= 1; s-- {
				resumed := oocAmps(t, n, l, func(v *Vector) error {
					v.SetPrefetch(depth)
					man, err := ckpt.FindRestorable(dir, v.snapshotMeta(plan))
					if err != nil || man == nil || man.NextStage != s {
						t.Fatalf("FindRestorable = %+v, %v; want the boundary-%d snapshot", man, err, s)
					}
					if err := v.Restore(dir, man); err != nil {
						return err
					}
					return v.walk(plan, s)
				})
				if !slices.Equal(resumed, want) {
					t.Fatalf("run restored at boundary %d differs from Plan.Run", s)
				}
				if err := os.Remove(filepath.Join(dir, fmt.Sprintf("manifest-%06d.json", s))); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestKilledBeforeTeeCommitsResumesFromOlder: the snapshot of boundary s
// commits inside stage s, so a run that dies there — stage s−1 done, the
// tee of boundary s under way — leaves boundary s−1's snapshot as the newest
// and no temp file, and resuming lands bitwise on the clean result without
// writing that snapshot a second time.
func TestKilledBeforeTeeCommitsResumesFromOlder(t *testing.T) {
	n, l := 10, 6
	_, plan := buildPlan(t, n, l, 16, 4)
	if plan.Stages() < 4 {
		t.Fatalf("plan has %d stages; the scenario needs at least 4", plan.Stages())
	}
	want := planRunAmps(t, plan)
	chunks := 1 << (n - l)
	fs := &faultFS{}
	for _, depth := range []int{0, 4} {
		t.Run(fmt.Sprintf("prefetch%d", depth), func(t *testing.T) {
			dir := t.TempDir()
			pol := &ckpt.Policy{Dir: dir, Keep: keepAll}
			v, err := Create(fs, n, l, t.TempDir(), statevec.StartUniform)
			if err != nil {
				t.Fatal(err)
			}
			defer v.Close()
			v.SetPrefetch(depth)
			// Die on a read in the second half of stage 2's pass: stage 0
			// computes the start state and reads nothing, stage 1 reads
			// the file once. Chunks after a swap are read in runs, so count
			// bytes, not calls.
			var reads atomic.Int32
			fs.arm(func(write bool, off int64, n int) error {
				if !write && int(reads.Add(int32(n))) > (chunks+chunks/2)*ampBytes<<l {
					return fmt.Errorf("injected kill")
				}
				return nil
			})
			_, written, err := v.RunCheckpointed(plan, pol, false)
			fs.arm(nil)
			if err == nil || !strings.Contains(err.Error(), "injected kill") {
				t.Fatalf("run survived its kill: %v", err)
			}
			if written != 1 {
				t.Errorf("%d snapshots committed before the kill, want boundary 1 only", written)
			}
			if files := snapshotFiles(t, dir); len(files) != 2 {
				t.Fatalf("snapshot directory holds %v after the kill, want boundary 1's shard and manifest", files)
			}

			resumed := oocAmps(t, n, l, func(v *Vector) error {
				v.SetPrefetch(depth)
				restored, written, err := v.RunCheckpointed(plan, pol, true)
				if restored != 1 {
					t.Errorf("resumed from boundary %d, want 1", restored)
				}
				if want := plan.Stages() - 2; written != want {
					t.Errorf("resumed run committed %d snapshots, want %d (boundaries 2 and up)", written, want)
				}
				return err
			})
			if !slices.Equal(resumed, want) {
				t.Fatal("resumed run differs from Plan.Run")
			}
		})
	}
}

// TestTeeENOSPC drives the policy of a teed write: a full disk in the middle
// of a shard is answered by pruning the oldest snapshot and repeating that
// write; a disk that stays full costs that snapshot — no temp file, no
// half-committed boundary — and never the run.
func TestTeeENOSPC(t *testing.T) {
	n, l := 10, 6
	_, plan := buildPlan(t, n, l, 16, 4)
	if plan.Stages() < 4 {
		t.Fatalf("plan has %d stages; the scenario needs at least 3 snapshots", plan.Stages())
	}
	want := planRunAmps(t, plan)
	boundaries := plan.Stages() - 1

	// run executes the plan checkpointed with the snapshot directory on fs.
	run := func(t *testing.T, fs *chaos.FS) (v *Vector, dir string, written int) {
		t.Helper()
		v, err := NewUniform(n, l, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { v.Close() })
		v.SetPrefetch(2)
		dir = t.TempDir()
		_, written, err = v.RunCheckpointed(plan, &ckpt.Policy{Dir: dir, Keep: keepAll, FS: fs}, false)
		if err != nil {
			t.Fatalf("a full snapshot disk failed the run: %v", err)
		}
		got, err := v.Amplitudes()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatal("run differs from Plan.Run")
		}
		return v, dir, written
	}

	// Learn what one snapshot costs in write-family ops.
	probe := chaos.NewFS(chaos.DiskFaults{}, nil)
	if _, _, written := run(t, probe); written != boundaries {
		t.Fatalf("probe committed %d snapshots, want %d", written, boundaries)
	}
	perSnapshot := int(probe.Stats().WriteOps) / boundaries
	// CreateTemp, the header, then one write per chunk: op 5 of a snapshot
	// is the tee of its third chunk.
	const midTee = 5

	t.Run("window", func(t *testing.T) {
		// One failing op inside the third snapshot, two older ones to prune.
		fs := chaos.NewFS(chaos.DiskFaults{NoSpaceAt: 2*perSnapshot + midTee, NoSpaceRun: 1}, nil)
		v, dir, written := run(t, fs)
		if fs.Stats().NoSpace != 1 {
			t.Fatalf("%d ENOSPC injected, want 1 — the scenario tested nothing", fs.Stats().NoSpace)
		}
		if written != boundaries || v.CheckpointsSkipped() != 0 {
			t.Errorf("written=%d skipped=%d, want %d and 0: the write was to be repeated after the prune", written, v.CheckpointsSkipped(), boundaries)
		}
		files := snapshotFiles(t, dir)
		if slices.Contains(files, "manifest-000001.json") || !slices.Contains(files, "manifest-000003.json") {
			t.Errorf("directory holds %v: want boundary 1 pruned, boundary 3 committed", files)
		}
		man, err := ckpt.FindRestorable(dir, v.snapshotMeta(plan))
		if err != nil || man == nil || man.NextStage != boundaries {
			t.Errorf("FindRestorable = %+v, %v; want the last boundary", man, err)
		}
	})

	t.Run("persistent", func(t *testing.T) {
		// From the middle of the first snapshot on the disk stays full.
		tel := telemetry.New()
		fs := chaos.NewFS(chaos.DiskFaults{NoSpaceAt: midTee, NoSpaceRun: 1 << 30}, nil)
		v, err := NewUniform(n, l, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer v.Close()
		v.SetPrefetch(2)
		v.SetTelemetry(tel)
		dir := t.TempDir()
		_, written, err := v.RunCheckpointed(plan, &ckpt.Policy{Dir: dir, FS: fs}, false)
		if err != nil {
			t.Fatalf("a full snapshot disk failed the run: %v", err)
		}
		if written != 0 || v.CheckpointsSkipped() != boundaries {
			t.Errorf("written=%d skipped=%d, want 0 and %d", written, v.CheckpointsSkipped(), boundaries)
		}
		if got := tel.Counter("ckpt.skipped").Value(); got != int64(boundaries) {
			t.Errorf("ckpt.skipped = %d, want %d", got, boundaries)
		}
		if files := snapshotFiles(t, dir); len(files) != 0 {
			t.Errorf("dropped snapshots left %v behind", files)
		}
		got, err := v.Amplitudes()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatal("run differs from Plan.Run")
		}
	})
}

// TestTeeSpanAndShardTelemetry: each teed snapshot is one span on the
// prefetch reader's timeline carrying its chunk count and bytes, and the
// shard it closes feeds ckpt's write counters in the vector's telemetry.
func TestTeeSpanAndShardTelemetry(t *testing.T) {
	n, l := 10, 6
	_, plan := buildPlan(t, n, l, 16, 4)
	tel := telemetry.New()
	v, err := NewUniform(n, l, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	v.SetPrefetch(2)
	v.SetTelemetry(tel)
	_, written, err := v.RunCheckpointed(plan, &ckpt.Policy{Dir: t.TempDir()}, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := tel.Counter("ckpt.shard_writes").Value(); got != int64(written) {
		t.Errorf("ckpt.shard_writes = %d, want %d", got, written)
	}
	if got, want := tel.Counter("ckpt.shard_write_bytes").Value(), int64(written)*16<<n; got != want {
		t.Errorf("ckpt.shard_write_bytes = %d, want %d", got, want)
	}

	var buf bytes.Buffer
	if err := tel.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name, Cat string
			Tid       int
			Args      map[string]any
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	tees := 0
	for _, e := range doc.TraceEvents {
		if e.Cat != "ckpt" || e.Name != "tee" {
			continue
		}
		tees++
		if e.Tid != 1 {
			t.Errorf("tee span on timeline %d, want the prefetch reader's (1)", e.Tid)
		}
		if e.Args["chunks"] != float64(v.Chunks()) || e.Args["bytes"] != float64(int64(16)<<n) {
			t.Errorf("tee span args %v, want %d chunks and %d bytes", e.Args, v.Chunks(), int64(16)<<n)
		}
	}
	if tees != written {
		t.Errorf("%d tee spans for %d snapshots", tees, written)
	}
}

// TestLaterStagesAllocateNoChunkBuffers: the pipeline's buffers belong to
// the vector, so once a run has them a whole further run — every stage of
// it, teeing snapshots — allocates less than one chunk.
func TestLaterStagesAllocateNoChunkBuffers(t *testing.T) {
	n, l := 18, 16 // 1 MiB chunks
	_, plan := buildPlan(t, n, l, 12, 3)
	if plan.Stages() < 2 {
		t.Fatalf("plan has %d stages; the scenario needs at least 2", plan.Stages())
	}
	v, err := NewUniform(n, l, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	v.SetPrefetch(2)
	if err := v.Run(plan); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, err := v.RunCheckpointed(plan, &ckpt.Policy{Dir: t.TempDir()}, false); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= uint64(v.chunkBytes()) {
		t.Errorf("a run on a warm vector allocated %d bytes, a chunk is %d", got, v.chunkBytes())
	}
}
