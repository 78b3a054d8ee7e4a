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
	"qusim/internal/statevec"
	"qusim/internal/telemetry"
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
			v, err := Create(fs, n, l, t.TempDir(), statevec.StartUniform)
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
				if err := v.walk(plan, s); err != nil {
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

// swapPlan builds an n-qubit plan at l local qubits whose one swap brings
// q global qubits in, and its stages.
func swapPlan(t *testing.T, n, l, q int) (*schedule.Plan, []schedule.Stage[complex128]) {
	t.Helper()
	c := circuit.NewCircuit(n)
	for i := 0; i < l+q; i++ {
		c.Append(circuit.NewH(i), circuit.NewT(i))
	}
	for i := 0; i+1 < l+q; i++ {
		c.Append(circuit.NewCZ(i, i+1))
	}
	for i := 0; i < l+q; i++ {
		c.Append(circuit.NewYHalf(i))
	}
	plan, err := schedule.Build(c, schedule.DefaultOptions(l))
	if err != nil {
		t.Fatal(err)
	}
	stages, err := (&schedule.Shard[complex128]{L: l}).Stages(plan, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 2 || len(stages[0].GlobalBits) != q {
		t.Fatalf("plan has %d stages, the first swapping %v; the scenario needs one swap of %d qubits", len(stages), stages[0].GlobalBits, q)
	}
	return plan, stages
}

// TestCoalescedWriteRequests pins the state file's request counts, and the
// state bytes in memory, of plans whose one swap brings q global qubits in
// and puts chunk bits 0…q−1 right above the runs. Before the swap every
// chunk is one run, written in one request and read in none (the first
// stage computes the start state); after it a chunk is 2^q runs, read in
// 2^q requests and written in 2^q/G, its group of G chunks combined. G is
// 2^writeGroupBits, cut to the largest power of two ≤ depth+1 — none at
// depth 0 — so the staging buffer of G chunks never outgrows the depth+1
// chunks of the pool, and mem.state_bytes counts both; runs of
// combineRunBytes or more are never combined. Every row stays bitwise equal
// to Plan.Run.
func TestCoalescedWriteRequests(t *testing.T) {
	for _, tc := range []struct {
		n, l, q, depth int
		groupBits      int // log2 G
	}{
		{14, 8, 3, 0, 0}, // 512 B runs, no room for staging
		{14, 8, 3, 1, 1},
		{14, 8, 3, 3, writeGroupBits},
		{14, 8, 3, 4, writeGroupBits},
		{15, 13, 2, 4, 0}, // runs of combineRunBytes
	} {
		t.Run(fmt.Sprintf("n%d_l%d_q%d_depth%d", tc.n, tc.l, tc.q, tc.depth), func(t *testing.T) {
			if tc.groupBits == 0 && tc.depth > 0 && ampBytes<<(tc.l-tc.q) < combineRunBytes {
				t.Fatalf("runs of %d bytes at depth %d would combine", ampBytes<<(tc.l-tc.q), tc.depth)
			}
			plan, stages := swapPlan(t, tc.n, tc.l, tc.q)
			v, err := NewUniform(tc.n, tc.l, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer v.Close()
			v.SetPrefetch(tc.depth)
			tel := telemetry.New()
			v.SetTelemetry(tel)
			reads, writes := tel.Registry().Counter("oocvec.read_requests"), tel.Registry().Counter("oocvec.write_requests")
			chunks := int64(v.Chunks())
			for s, wantRuns := range []int64{1, 1 << tc.q} {
				r0, w0 := reads.Value(), writes.Value()
				if err := runStage(v, &stages[s]); err != nil {
					t.Fatal(err)
				}
				wantReads, wantWrites := wantRuns, wantRuns
				if s == 0 {
					wantReads = 0
				}
				if wantRuns > 1 {
					wantWrites = wantRuns >> tc.groupBits
				}
				if got := reads.Value() - r0; got != chunks*wantReads {
					t.Errorf("stage %d: %d read requests, want %d per chunk", s, got, wantReads)
				}
				if got := writes.Value() - w0; got != chunks*wantWrites {
					t.Errorf("stage %d: %d write requests, want %d per chunk (%d runs, %d chunks a group)",
						s, got, wantWrites, wantRuns, 1<<tc.groupBits)
				}
			}
			held := tc.depth + 1 // the pool
			if tc.groupBits > 0 {
				held += 1 << tc.groupBits // and the staging buffer
			}
			if got, want := tel.Gauge("mem.state_bytes").Value(), int64(held*v.chunkBytes()); got != want {
				t.Errorf("mem.state_bytes = %d, want %d chunks of %d", got, held, v.chunkBytes())
			}
			if got, err := v.Amplitudes(); err != nil || !slices.Equal(got, planRunAmps(t, plan)) {
				t.Fatalf("paged run differs from Plan.Run (err %v)", err)
			}
		})
	}
}

// TestCoalescedWritebackAnyOrder: a group's write waits for all of its
// chunks, in whatever order they come, and lands each where chunkIO reads
// it back; a chunk of another group while one is staged is an error.
func TestCoalescedWritebackAnyOrder(t *testing.T) {
	const n, l, q = 10, 5, 3
	v, err := New(n, l, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	for j := 0; j < q; j++ { // a closing swap of global locations 0…q−1
		v.loc[l-q+j], v.loc[l+j] = v.loc[l+j], v.loc[l-q+j]
	}
	w := v.writeback(1<<writeGroupBits - 1)
	if w.r != l-q || w.g != writeGroupBits {
		t.Fatalf("layout %v: r = %d, g = %d; want %d and %d", v.loc, w.r, w.g, l-q, writeGroupBits)
	}
	chunk := func(c int) []complex128 {
		amps := make([]complex128, 1<<l)
		for i := range amps {
			amps[i] = complex(float64(c), float64(i))
		}
		return amps
	}
	g := 1 << writeGroupBits
	for first := 0; first < v.Chunks(); first += g {
		for k := g - 1; k >= 0; k-- {
			if err := w.put(&chunkBuf{idx: first + k, amps: chunk(first + k)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	buf := make([]complex128, 1<<l)
	for c := 0; c < v.Chunks(); c++ {
		if err := v.chunkIO(c, buf, false); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(buf, chunk(c)) {
			t.Fatalf("chunk %d reads back other amplitudes", c)
		}
	}
	if err := w.put(&chunkBuf{idx: 0, amps: chunk(0)}); err != nil {
		t.Fatal(err)
	}
	if err := w.put(&chunkBuf{idx: g, amps: chunk(g)}); err == nil {
		t.Fatal("a chunk of the next group was staged while a group was open")
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
