package oocvec

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"

	"qusim/internal/circuit"
	"qusim/internal/ckpt"
	"qusim/internal/schedule"
)

// TestSwapMovesNoData: a closing swap trades layout entries and moves no
// amplitude, so at every prefetch depth a paged run keeps its one state
// file — nothing is created, renamed or removed after New — and every
// stage, swap stages included, writes the state exactly once. A snapshot
// restored into a vector whose layout is no longer the identity resumes
// bitwise on Plan.Run.
func TestSwapMovesNoData(t *testing.T) {
	n, l := 10, 5
	_, plan := buildPlan(t, n, l, 16, 8)
	if plan.Stats.Swaps < 2 {
		t.Fatalf("want a multi-swap plan, got %d swaps", plan.Stats.Swaps)
	}
	want := planRunAmps(t, plan)
	stateBytes := int64(ampBytes) << n
	fs := &faultFS{}
	for _, depth := range []int{0, 4} {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			v, err := Create(fs, n, l, t.TempDir(), true)
			if err != nil {
				t.Fatal(err)
			}
			defer v.Close()
			v.SetPrefetch(depth)
			fs.creates.Store(0)
			fs.renames.Store(0)
			fs.removes.Store(0)
			oneFile := func(when string) {
				t.Helper()
				if c, r, d := fs.creates.Load(), fs.renames.Load(), fs.removes.Load(); c+r+d != 0 {
					t.Fatalf("%s: %d CreateTemp, %d Rename, %d Remove on the state's FS since New, want none", when, c, r, d)
				}
			}
			var written atomic.Int64
			fs.arm(func(write bool, off int64, n int) error {
				if write {
					written.Add(int64(n))
				}
				return nil
			})
			defer fs.arm(nil)

			// Stage by stage, each followed by a snapshot of its boundary.
			stages, err := (&schedule.Shard[complex128]{L: l}).Stages(plan, 0)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			for i := range stages {
				written.Store(0)
				if err := runStage(v, &stages[i]); err != nil {
					t.Fatal(err)
				}
				if got := written.Load(); got != stateBytes {
					t.Errorf("stage %d (swap %v) wrote %d bytes, want the state's %d", i, stages[i].GlobalBits, got, stateBytes)
				}
				if i+1 < len(stages) {
					if err := v.Checkpoint(dir, plan, i+1, keepAll); err != nil {
						t.Fatal(err)
					}
				}
			}
			if got, err := v.Amplitudes(); err != nil || !slices.Equal(got, want) {
				t.Fatalf("stage-by-stage run differs from Plan.Run (err %v)", err)
			}
			oneFile("stage-by-stage run")

			// Resume from every boundary, newest first, each into the layout
			// the previous resumed run left behind.
			for s := len(stages) - 1; s >= 1; s-- {
				if isIdentity(v.loc) {
					t.Fatalf("layout %v before restoring boundary %d is the identity: the scenario tests nothing", v.loc, s)
				}
				man, err := ckpt.FindRestorable(dir, v.snapshotMeta(plan))
				if err != nil || man == nil || man.NextStage != s {
					t.Fatalf("FindRestorable = %+v, %v; want the boundary-%d snapshot", man, err, s)
				}
				if err := v.Restore(dir, man); err != nil {
					t.Fatal(err)
				}
				if err := v.RunFrom(plan, s); err != nil {
					t.Fatal(err)
				}
				if got, err := v.Amplitudes(); err != nil || !slices.Equal(got, want) {
					t.Fatalf("run restored at boundary %d into layout differs from Plan.Run (err %v)", s, err)
				}
				if err := os.Remove(filepath.Join(dir, fmt.Sprintf("manifest-%06d.json", s))); err != nil {
					t.Fatal(err)
				}
			}
			oneFile("resumed runs")
		})
	}
}

func isIdentity(loc []int) bool {
	for p, b := range loc {
		if p != b {
			return false
		}
	}
	return true
}

// FuzzPagedLayout runs random small plans (n ≤ 10, any l < n) through the
// paged engine at prefetch depths 0 and 2 and holds them bitwise to
// Plan.Run: whatever swaps the layout went through, every chunk is read
// and written where it lives.
func FuzzPagedLayout(f *testing.F) {
	f.Add(int64(1), 6, 60, 3)   // the first swap takes all three local locations: one-amplitude runs
	f.Add(int64(1), 6, 60, 4)   // the second swap re-exchanges global location 1 of the first
	f.Add(int64(1), 10, 60, 1)  // l = 1: every swap is all of L
	f.Add(int64(8), 10, 120, 5) // a deep circuit, many stages
	f.Fuzz(func(t *testing.T, seed int64, n, gates, l int) {
		// Clamp the raw inputs into the supported envelope.
		if n < 2 || n > 10 {
			n = 2 + int(uint(n)%9)
		}
		if gates < 1 || gates > 120 {
			gates = 1 + int(uint(gates)%120)
		}
		if l < 1 || l >= n {
			l = 1 + int(uint(l)%uint(n-1))
		}
		c := circuit.RandomCircuit(n, gates, seed)
		if l == 1 {
			// A dense two-qubit gate needs two local locations.
			c.Gates = slices.DeleteFunc(c.Gates, func(g circuit.Gate) bool { return len(g.Qubits) > 1 && !g.IsDiagonal() })
		}
		opts := schedule.DefaultOptions(l)
		opts.KMax = min(opts.KMax, l)
		plan, err := schedule.Build(c, opts)
		if err != nil {
			t.Fatalf("Build(n=%d gates=%d l=%d seed=%d): %v", n, gates, l, seed, err)
		}
		want := planRunAmps(t, plan)
		for _, depth := range []int{0, 2} {
			got := oocAmps(t, n, l, func(v *Vector) error {
				v.SetPrefetch(depth)
				return v.Run(plan)
			})
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d gates=%d l=%d seed=%d depth %d: paged run differs from Plan.Run", n, gates, l, seed, depth)
			}
		}
	})
}
