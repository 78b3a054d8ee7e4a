package oocvec

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"qusim/internal/chaos"
	"qusim/internal/circuit"
	"qusim/internal/ckpt"
	"qusim/internal/dist"
	"qusim/internal/fsio"
	"qusim/internal/kernels"
	"qusim/internal/schedule"
	"qusim/internal/statevec"
)

// The state file is streamed only for state the vector cannot compute: the
// start state is never written or read, and the norm and entropy the last
// stage sums are kept until the file changes. These tests pin the bytes
// that still move and hold every path that now computes instead of
// reading to Plan.Run, or to the stream it replaces, bit for bit.

// threeStagePlan is a plan of three stages on 2^4 chunks of 2^6 amplitudes.
func threeStagePlan(t *testing.T) (n, l int, plan *schedule.Plan) {
	t.Helper()
	n, l = 10, 6
	_, plan = buildPlan(t, n, l, 8, 1)
	if plan.Stages() != 3 {
		t.Fatalf("plan has %d stages, want 3", plan.Stages())
	}
	return n, l, plan
}

// endInSwap returns plan cut after its last swap, so that its final stage
// closes with one.
func endInSwap(t *testing.T, plan *schedule.Plan) *schedule.Plan {
	t.Helper()
	cut := *plan
	for i := len(plan.Ops) - 1; i >= 0; i-- {
		if plan.Ops[i].Kind == schedule.OpSwap {
			cut.Ops = plan.Ops[:i+1]
			return &cut
		}
	}
	t.Fatal("plan has no swap")
	return nil
}

// streamSums sums the norm and entropy of v's chunks in chunk order, as a
// stream over the file always has.
func streamSums(t *testing.T, v *Vector) (norm, entropy float64) {
	t.Helper()
	if err := v.Units(func(chunk []complex128) error {
		a, b := kernels.NormEntropy(chunk)
		norm, entropy = norm+a, entropy+b
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return norm, entropy
}

// sameBits is bitwise equality of two float64s.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkKeptPair holds v's Norm, Entropy and NormEntropy to a stream over
// the file, bit for bit.
func checkKeptPair(t *testing.T, v *Vector) {
	t.Helper()
	wantNorm, wantEnt := streamSums(t, v)
	norm, ent, err := v.NormEntropy()
	if err != nil {
		t.Fatal(err)
	}
	n1, err1 := v.Norm()
	e1, err2 := v.Entropy()
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !sameBits(norm, wantNorm) || !sameBits(ent, wantEnt) || !sameBits(n1, wantNorm) || !sameBits(e1, wantEnt) {
		t.Errorf("NormEntropy (%v, %v), Norm %v, Entropy %v; the stream sums (%v, %v)", norm, ent, n1, e1, wantNorm, wantEnt)
	}
}

// TestPipelineStreamsOnlyWhatItCannotCompute pins the state file's bytes.
// Create writes none. A fresh run's first stage reads none and every later
// stage reads the whole file once; every stage writes it once, and a
// checkpointed run's snapshots are the shards they were. Norm, Entropy and
// NormEntropy after the run read nothing, and stream again after a Restore,
// a swap, a failed stage or a run whose last stage closes with a swap.
func TestPipelineStreamsOnlyWhatItCannotCompute(t *testing.T) {
	n, l, plan := threeStagePlan(t)
	file := int64(ampBytes) << n
	for _, depth := range []int{0, 2} {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			fs := &faultFS{}
			create := func() *Vector {
				t.Helper()
				r0, w0 := fs.read.Load(), fs.written.Load()
				v, err := Create(fs, n, l, t.TempDir(), statevec.StartUniform)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { v.Close() })
				if r, w := fs.read.Load()-r0, fs.written.Load()-w0; r != 0 || w != 0 {
					t.Fatalf("Create read %d and wrote %d bytes, want none", r, w)
				}
				v.SetPrefetch(depth)
				return v
			}
			// moved runs f and returns the bytes it read and wrote.
			moved := func(f func() error) (read, written int64) {
				t.Helper()
				r0, w0 := fs.read.Load(), fs.written.Load()
				if err := f(); err != nil {
					t.Fatal(err)
				}
				return fs.read.Load() - r0, fs.written.Load() - w0
			}

			// Stage by stage: the first reads nothing. A stage that closes
			// with a swap keeps no sums, and the swap drops a stream's.
			v := create()
			stages, err := (&schedule.Shard[complex128]{L: l}).Stages(plan, 0)
			if err != nil {
				t.Fatal(err)
			}
			normEntropy := func() error { _, _, err := v.NormEntropy(); return err }
			for s := range stages {
				st := &stages[s]
				r, w := moved(func() error { return v.Stage(st, nil) })
				if want := min(int64(s), 1) * file; r != want || w != file {
					t.Errorf("stage %d read %d and wrote %d bytes, want %d and %d", s, r, w, want, file)
				}
				if !st.Exchanges() {
					if r, _ := moved(normEntropy); r != 0 {
						t.Errorf("NormEntropy after the last stage read %d bytes, want none", r)
					}
					continue
				}
				if r, _ := moved(normEntropy); r != file {
					t.Errorf("NormEntropy after stage %d read %d bytes, want the file's %d", s, r, file)
				}
				v.Exchange(st)
				if r, _ := moved(normEntropy); r != file {
					t.Errorf("NormEntropy after stage %d's swap read %d bytes, want the file's %d", s, r, file)
				}
			}

			// A checkpointed run: two streamed reads, three writes, and the
			// snapshots of boundaries 1 and 2.
			v, dir := create(), t.TempDir()
			var written int
			r, w := moved(func() (err error) {
				_, written, err = v.RunCheckpointed(plan, &ckpt.Policy{Dir: dir, Keep: keepAll}, false)
				return err
			})
			if r != 2*file || w != 3*file {
				t.Errorf("checkpointed run read %d and wrote %d bytes, want %d and %d", r, w, 2*file, 3*file)
			}
			if files := snapshotFiles(t, dir); written != 2 || len(files) != 4 {
				t.Errorf("%d snapshots committed, directory holds %v; want boundaries 1 and 2", written, files)
			}
			if r, _ := moved(func() error {
				_, err := v.Norm()
				if err == nil {
					_, err = v.Entropy()
				}
				if err == nil {
					_, _, err = v.NormEntropy()
				}
				return err
			}); r != 0 {
				t.Errorf("Norm, Entropy and NormEntropy after the run read %d bytes, want none", r)
			}
			checkKeptPair(t, v)

			// A restore changes the file: the sums stream again, once.
			man, err := ckpt.FindRestorable(dir, v.snapshotMeta(plan))
			if err != nil || man == nil {
				t.Fatalf("FindRestorable = %v, %v", man, err)
			}
			if err := v.Restore(dir, man); err != nil {
				t.Fatal(err)
			}
			for i, want := range []int64{file, 0} {
				if r, _ := moved(normEntropy); r != want {
					t.Errorf("NormEntropy %d after Restore read %d bytes, want %d", i+1, r, want)
				}
			}
			checkKeptPair(t, v)

			// So does a run that ends in a swap, inside dist's reduction:
			// every stage reads, and the reduction reads once more.
			cut := endInSwap(t, plan)
			r, _ = moved(func() error { return v.Run(cut) })
			if want := int64(cut.Stages()+1) * file; r != want {
				t.Errorf("a run ending in a swap read %d bytes, want %d (every stage, then the reduction)", r, want)
			}
			if r, _ := moved(normEntropy); r != 0 {
				t.Errorf("NormEntropy after the reduction read %d bytes, want none", r)
			}
			checkKeptPair(t, v)

			// A stage that fails has changed the file all the same.
			fs.arm(func(write bool, off int64, n int) error {
				if write {
					return fmt.Errorf("injected write failure")
				}
				return nil
			})
			err = v.Run(plan)
			fs.arm(nil)
			if err == nil {
				t.Fatal("the run survived its injected failure")
			}
			if r, _ := moved(normEntropy); r != file {
				t.Errorf("NormEntropy after a failed stage read %d bytes, want the file's %d", r, file)
			}
		})
	}
}

// TestPipelineComputedStartMatchesStream holds every path that computes the
// start state, or keeps the last stage's sums, to Plan.Run or to the stream
// it replaces, bit for bit: both start states, at prefetch depths 0 and 2,
// before any stage (Amplitudes, Checkpoint, sampling), across a failure
// inside stage 0 or before the first snapshot and the restart, from a
// restored snapshot, and on a plan whose final stage ends in a swap.
func TestPipelineComputedStartMatchesStream(t *testing.T) {
	n, l, plan := threeStagePlan(t)
	empty, err := schedule.Build(circuit.NewCircuit(n), schedule.DefaultOptions(l))
	if err != nil {
		t.Fatal(err)
	}
	cut := endInSwap(t, plan)
	for _, sc := range []struct {
		name  string
		start statevec.Start
	}{{"zero", statevec.StartZero}, {"uniform", statevec.StartUniform}} {
		start := sc.start
		initial := statevec.Prepare[complex128](start, n).Amps
		want, wantCut := planRunFrom(t, plan, start), planRunFrom(t, cut, start)
		for _, depth := range []int{0, 2} {
			fresh := func(fs fsio.FS) *Vector {
				t.Helper()
				v, err := Create(fs, n, l, t.TempDir(), start)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { v.Close() })
				v.SetPrefetch(depth)
				return v
			}
			amplitudes := func(v *Vector) []complex128 {
				t.Helper()
				amps, err := v.Amplitudes()
				if err != nil {
					t.Fatal(err)
				}
				return amps
			}
			name := fmt.Sprintf("%s/depth%d", sc.name, depth)

			t.Run(name+"/before-any-stage", func(t *testing.T) {
				// A computed vector and one whose file holds its Checkpoint,
				// restored: the same amplitudes, result and samples.
				computed, dir := fresh(nil), t.TempDir()
				if !slices.Equal(amplitudes(computed), initial) {
					t.Error("Amplitudes before any stage differ from the start state")
				}
				if err := computed.Checkpoint(dir, plan, 1, 2); err != nil {
					t.Fatal(err)
				}
				streamed := fresh(nil)
				man, err := ckpt.FindRestorable(dir, streamed.snapshotMeta(plan))
				if err != nil || man == nil {
					t.Fatalf("FindRestorable = %v, %v", man, err)
				}
				if err := streamed.Restore(dir, man); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(amplitudes(streamed), initial) {
					t.Error("the Checkpoint of a computed start state restores other amplitudes")
				}
				var res [2]*dist.Result
				for i, v := range []*Vector{computed, streamed} {
					if res[i], err = dist.Run(empty, dist.Options{Ranks: 1, Init: start, Store: v, SampleShots: 64, SampleSeed: 7}); err != nil {
						t.Fatal(err)
					}
				}
				if !sameBits(res[0].Norm, res[1].Norm) || !sameBits(res[0].Entropy, res[1].Entropy) || !slices.Equal(res[0].Samples, res[1].Samples) {
					t.Errorf("computed start: norm %v, entropy %v; streamed: %v, %v; samples equal %v",
						res[0].Norm, res[0].Entropy, res[1].Norm, res[1].Entropy, slices.Equal(res[0].Samples, res[1].Samples))
				}
			})

			// A full disk fails a write of stage 0 (its third chunk, after
			// two landed) or of stage 1 (its first, before boundary 1's
			// snapshot commits): the restart computes the start state again.
			// Op 1 is Create's temp file.
			chunks := 1 << (n - l)
			for stage, op := range []int{1 + 3, 1 + chunks + 1} {
				t.Run(fmt.Sprintf("%s/stage%d-failure", name, stage), func(t *testing.T) {
					v := fresh(chaos.NewFS(chaos.DiskFaults{NoSpaceAt: op, NoSpaceRun: 1}, nil))
					res, err := runPaged(t, v, plan)
					if err != nil {
						t.Fatal(err)
					}
					if res.Restarts != 1 || res.CheckpointsRestored != 0 {
						t.Errorf("%d restarts, %d restored; want 1 and 0", res.Restarts, res.CheckpointsRestored)
					}
					if !slices.Equal(amplitudes(v), want) {
						t.Error("the restarted run differs from Plan.Run")
					}
					checkKeptPair(t, v)
				})
			}

			t.Run(name+"/restore-then-run", func(t *testing.T) {
				dir := t.TempDir()
				if _, _, err := fresh(nil).RunCheckpointed(plan, &ckpt.Policy{Dir: dir}, false); err != nil {
					t.Fatal(err)
				}
				v := fresh(nil)
				man, err := ckpt.FindRestorable(dir, v.snapshotMeta(plan))
				if err != nil || man == nil {
					t.Fatalf("FindRestorable = %v, %v", man, err)
				}
				if err := v.Restore(dir, man); err != nil {
					t.Fatal(err)
				}
				if err := v.walk(plan, man.NextStage); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(amplitudes(v), want) {
					t.Errorf("the run restored at boundary %d differs from Plan.Run", man.NextStage)
				}
				checkKeptPair(t, v)
			})

			t.Run(name+"/final-swap", func(t *testing.T) {
				v := fresh(nil)
				res, err := dist.Run(cut, dist.Options{Ranks: 1, Init: start, Store: v})
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(amplitudes(v), wantCut) {
					t.Error("the run ending in a swap differs from Plan.Run")
				}
				if norm, ent := streamSums(t, v); !sameBits(res.Norm, norm) || !sameBits(res.Entropy, ent) {
					t.Errorf("dist's reduction (%v, %v), the stream (%v, %v)", res.Norm, res.Entropy, norm, ent)
				}
				checkKeptPair(t, v)
			})
		}
	}
}
