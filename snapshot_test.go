package qusim

// The snapshot format across versions and stores: a snapshot an earlier
// version of the code wrote still resumes, and the distributed and the paged
// run of one plan write the same state at every boundary.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"qusim/internal/circuit"
	"qusim/internal/ckpt"
	"qusim/internal/dist"
	"qusim/internal/kernels"
	"qusim/internal/oocvec"
	"qusim/internal/schedule"
	"qusim/internal/statevec"
)

// testdata/snapshots holds a 10-qubit plan at l = 8 (schedule.WritePlan of
// RandomCircuit(10, 120, 39), 3 stages) and two snapshots of it, written by
// the code as it was before the stage walk and the snapshot writer were
// shared: dist4/ by a 4-rank dist.Run, paged/ by oocvec's RunCheckpointed,
// both from |0…0⟩ with Keep 1, so each holds the boundary before stage 2.
// They are never rewritten: whatever the code becomes, they must resume.
const snapshotData = "testdata/snapshots"

// readSnapshotPlan reads the plan the testdata snapshots belong to.
func readSnapshotPlan(t *testing.T) *schedule.Plan {
	t.Helper()
	f, err := os.Open(filepath.Join(snapshotData, "plan10.plan"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	plan, err := schedule.ReadPlan(f)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// copySnapshot copies the testdata snapshot directory name into a fresh
// directory, which a resumed run may write into.
//
//qlint:ignore atomicrename a copy of test fixtures into a temp directory, which no crash can leave half-committed
func copySnapshot(t *testing.T, name string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(filepath.Join(snapshotData, name))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(snapshotData, name, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestParentSnapshotsResume: both stored snapshots resume — at boundary 2,
// not from the start — to the amplitudes Plan.Run computes, bit for bit.
func TestParentSnapshotsResume(t *testing.T) {
	plan := readSnapshotPlan(t)
	want := statevec.New(plan.N)
	if err := plan.Run(want); err != nil {
		t.Fatal(err)
	}

	t.Run("dist4", func(t *testing.T) {
		res, err := dist.Run(plan, dist.Options{
			Ranks: 4, GatherState: true, Resume: true,
			Checkpoint: &ckpt.Policy{Dir: copySnapshot(t, "dist4")},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.CheckpointsRestored != 1 {
			t.Fatalf("%d attempts restored a snapshot, want 1", res.CheckpointsRestored)
		}
		if !slices.Equal(res.Amplitudes, want.Amps) {
			t.Fatal("resumed 4-rank run differs from Plan.Run")
		}
	})

	t.Run("paged", func(t *testing.T) {
		v, err := oocvec.New(plan.N, plan.L, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer v.Close()
		restored, _, err := v.RunCheckpointed(plan, &ckpt.Policy{Dir: copySnapshot(t, "paged")}, true)
		if err != nil {
			t.Fatal(err)
		}
		if restored != 2 {
			t.Fatalf("resumed at boundary %d, want 2", restored)
		}
		got, err := v.Amplitudes()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want.Amps) {
			t.Fatal("resumed paged run differs from Plan.Run")
		}
	})
}

// TestStoresWriteTheSameSnapshot: a 4-rank run and a paged run of one plan,
// each snapshotting every boundary, commit the same boundaries, and at each
// the ranks' shards concatenated in rank order carry the paged shard's
// payload: both hold the state in plan-location order.
func TestStoresWriteTheSameSnapshot(t *testing.T) {
	const n, l, ranks = 12, 10, 4
	plan, err := schedule.Build(circuit.RandomCircuit(n, 300, 7), schedule.DefaultOptions(l))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Stages() < 3 {
		t.Fatalf("plan has %d stages; the comparison needs at least two boundaries", plan.Stages())
	}
	const keepAll = 1 << 10
	distDir, pagedDir := t.TempDir(), t.TempDir()
	if _, err := dist.Run(plan, dist.Options{Ranks: ranks, Checkpoint: &ckpt.Policy{Dir: distDir, EveryStages: 1, Keep: keepAll}}); err != nil {
		t.Fatal(err)
	}
	v, err := oocvec.New(n, l, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if _, _, err := v.RunCheckpointed(plan, &ckpt.Policy{Dir: pagedDir, EveryStages: 1, Keep: keepAll}, false); err != nil {
		t.Fatal(err)
	}

	distMans, pagedMans := manifests(t, distDir), manifests(t, pagedDir)
	var boundaries []int
	for next := range pagedMans {
		boundaries = append(boundaries, next)
	}
	slices.Sort(boundaries)
	if len(distMans) != len(pagedMans) || len(boundaries) != plan.Stages()-1 {
		t.Fatalf("dist committed %d boundaries, paged %v; want %d each", len(distMans), boundaries, plan.Stages()-1)
	}
	for _, next := range boundaries {
		dm, ok := distMans[next]
		if !ok {
			t.Fatalf("boundary %d: paged snapshot only", next)
		}
		concat := make([]complex128, 0, 1<<n)
		for r := 0; r < ranks; r++ {
			shard := make([]complex128, 1<<l)
			if err := readShard(distDir, dm, r, shard); err != nil {
				t.Fatal(err)
			}
			concat = append(concat, shard...)
		}
		paged := make([]complex128, 1<<n)
		if err := readShard(pagedDir, pagedMans[next], 0, paged); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(concat, paged) {
			t.Errorf("boundary %d: the ranks' shards differ from the paged shard", next)
		}
	}
}

// manifests decodes every manifest in dir, by the boundary it commits;
// readShard verifies each shard against it.
func manifests(t *testing.T, dir string) map[int]*ckpt.Manifest {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "manifest-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[int]*ckpt.Manifest{}
	for _, p := range paths {
		blob, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var m ckpt.Manifest
		if err := json.Unmarshal(blob, &m); err != nil {
			t.Fatal(err)
		}
		out[m.NextStage] = &m
	}
	return out
}

// readShard reads rank's shard of m in dir into dst, verifying it.
func readShard(dir string, m *ckpt.Manifest, rank int, dst []complex128) error {
	return ckpt.NewWriter(&ckpt.Policy{Dir: dir}, m.Meta, nil).StreamShard(m, rank, kernels.AmpBytes(dst), nil)
}
