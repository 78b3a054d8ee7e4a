package oocvec

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"qusim/internal/ckpt"
	"qusim/internal/schedule"
	"qusim/internal/statevec"
	"qusim/internal/telemetry"
)

// planRunAmps is the bitwise reference of this package's tests: the plan
// executed by Plan.Run on an in-memory vector from the uniform state.
func planRunAmps(t *testing.T, plan *schedule.Plan) []complex128 {
	t.Helper()
	v := statevec.NewUniform(plan.N)
	if err := plan.Run(v); err != nil {
		t.Fatal(err)
	}
	return v.Amps
}

// TestEveryDepthMatchesPlanRunBitwise is the core guarantee: every prefetch
// depth — none, shallow, deeper than the chunk count — produces amplitudes
// bitwise identical to Plan.Run on an in-memory vector, because the fused
// stage pass applies, chunk by chunk through the same shard applier, exactly
// the per-amplitude operations Plan.Run applies to the whole state.
func TestEveryDepthMatchesPlanRunBitwise(t *testing.T) {
	n, l := 12, 6 // 64 chunks, multi-swap plan
	_, plan := buildPlan(t, n, l, 16, 5)
	if plan.Stats.Swaps < 2 {
		t.Fatalf("want a multi-swap plan, got %d swaps", plan.Stats.Swaps)
	}
	ref := planRunAmps(t, plan)
	for _, depth := range []int{0, 1, 2, 3, 8, 1 << (n - l), 1<<(n-l) + 7} {
		got := oocAmps(t, n, l, func(v *Vector) error {
			v.SetPrefetch(depth)
			return v.Run(plan)
		})
		for i := range ref {
			if ref[i] != got[i] {
				t.Fatalf("depth %d: amplitude %d differs: %v vs %v", depth, i, ref[i], got[i])
			}
		}
	}
}

// TestPipelineCheckpointResumeBitwise proves checkpoint/restore stays
// bitwise identical under the pipeline: a checkpointed run, Plan.Run in
// memory, and a run resumed at another depth must all agree exactly.
func TestPipelineCheckpointResumeBitwise(t *testing.T) {
	n, l := 10, 6
	_, plan := buildPlan(t, n, l, 16, 4)
	if plan.Stages() < 2 {
		t.Fatalf("plan has %d stages; the scenario needs at least 2", plan.Stages())
	}
	clean := planRunAmps(t, plan)

	dir := t.TempDir()
	pol := &ckpt.Policy{Dir: dir}
	first := oocAmps(t, n, l, func(v *Vector) error {
		v.SetPrefetch(3)
		restored, written, err := v.RunCheckpointed(plan, pol, false)
		if err != nil {
			return err
		}
		if restored != -1 {
			t.Errorf("fresh run restored from stage %d", restored)
		}
		if written == 0 {
			t.Error("no snapshots committed")
		}
		return nil
	})
	for i := range clean {
		if clean[i] != first[i] {
			t.Fatalf("pipelined checkpointed run diverged at amplitude %d", i)
		}
	}

	resumed := oocAmps(t, n, l, func(v *Vector) error {
		v.SetPrefetch(2)
		restored, _, err := v.RunCheckpointed(plan, pol, true)
		if err != nil {
			return err
		}
		if restored < 0 {
			t.Error("resume found no snapshot")
		}
		return nil
	})
	for i := range clean {
		if clean[i] != resumed[i] {
			t.Fatalf("pipelined resumed run diverged at amplitude %d", i)
		}
	}
}

// awaitGoroutineBaseline waits for the process goroutine count to settle
// back to the pre-run baseline — a leaked reader or writeback goroutine
// keeps the count elevated and fails the assertion with a stack dump.
func awaitGoroutineBaseline(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s", runtime.NumGoroutine(), base, buf)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// assertOnlyBackingFile fails if dir holds anything besides the vector's
// backing state file: a paged run keeps one file, whatever happens.
func assertOnlyBackingFile(t *testing.T, dir string, when string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".state") {
			t.Fatalf("%s leaked temp file %s", when, e.Name())
		}
	}
	if len(entries) != 1 {
		t.Fatalf("%s: want exactly the backing file in %s, have %d entries", when, dir, len(entries))
	}
}

// TestPipelineFaultInjection errors reads and writes mid-run — of whole
// chunks and of the runs a chunk splits into after a swap, with read-ahead
// and at depth 0 — and asserts clean shutdown every time: the first error
// surfaces, no goroutine outlives Run, no temp file appears, and Close
// still succeeds.
func TestPipelineFaultInjection(t *testing.T) {
	n, l := 10, 5 // 32 chunks
	_, plan := buildPlan(t, n, l, 16, 8)
	if plan.Stats.Swaps < 1 {
		t.Fatalf("want a swap in the plan, got %d", plan.Stats.Swaps)
	}
	fs := &faultFS{}
	chunkBytes := ampBytes << l

	// Warm up once so shared pools (par workers) are at steady state
	// before the goroutine baseline is captured.
	warm := t.TempDir()
	{
		v, err := Create(fs, n, l, warm, true)
		if err != nil {
			t.Fatal(err)
		}
		v.SetPrefetch(4)
		if err := v.Run(plan); err != nil {
			t.Fatal(err)
		}
		v.Close()
	}

	// Each scenario fails the k-th access of its kind once the run has
	// started (the constructor's 32 chunk writes are not counted): a read in
	// the second stage's pass, a whole-chunk write of the first stage — the
	// layout is the identity until its closing swap — and one sub-chunk run
	// write of the stage after that swap.
	type scenario struct {
		name  string
		match func(write bool, n int) bool
		after int32
	}
	scenarios := []scenario{
		{"read", func(write bool, n int) bool { return !write }, 40},
		{"write", func(write bool, n int) bool { return write && n == chunkBytes }, 6},
		{"run", func(write bool, n int) bool { return write && n < chunkBytes }, 37},
	}
	for _, depth := range []int{0, 4} {
		for _, sc := range scenarios {
			t.Run(fmt.Sprintf("%s/depth%d", sc.name, depth), func(t *testing.T) {
				base := runtime.NumGoroutine()
				dir := t.TempDir()
				v, err := Create(fs, n, l, dir, true)
				if err != nil {
					t.Fatal(err)
				}
				var calls atomic.Int32
				fs.arm(func(write bool, off int64, n int) error {
					if sc.match(write, n) && calls.Add(1) > sc.after {
						return fmt.Errorf("injected %s failure at chunk %d", sc.name, off/int64(chunkBytes))
					}
					return nil
				})
				v.SetPrefetch(depth)
				runErr := v.Run(plan)
				fs.arm(nil)
				if runErr == nil {
					t.Fatal("injected fault did not surface from Run")
				}
				if !strings.Contains(runErr.Error(), "injected "+sc.name) {
					t.Fatalf("unexpected error: %v", runErr)
				}
				awaitGoroutineBaseline(t, base)
				assertOnlyBackingFile(t, dir, "failed pipelined run")
				if err := v.Close(); err != nil {
					t.Fatalf("Close after failed run: %v", err)
				}
				entries, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				if len(entries) != 0 {
					t.Fatalf("Close left %d entries behind", len(entries))
				}
			})
		}
	}
}

// TestOpAfterClosingSwapRejected pins the one behaviour the depth-0 fold
// changed at the edge: a hand-written plan with an op after its stage's
// closing swap used to run at depth 0 (one pass per op, in order) while the
// pipeline turned it away; now every depth returns the stage cut's
// error, before any I/O — no goroutine, the layout and the state untouched.
func TestOpAfterClosingSwapRejected(t *testing.T) {
	n, l := 10, 6
	_, plan := buildPlan(t, n, l, 16, 4)
	bad := *plan
	bad.Ops = nil
	for i := range plan.Ops {
		bad.Ops = append(bad.Ops, plan.Ops[i])
		if i > 0 && plan.Ops[i].Kind == schedule.OpSwap && len(bad.Ops) == i+1 {
			// Re-run the op that preceded the swap, still in the swap's stage.
			late := plan.Ops[i-1]
			late.Stage = plan.Ops[i].Stage
			bad.Ops = append(bad.Ops, late)
		}
	}
	if len(bad.Ops) == len(plan.Ops) {
		t.Fatal("plan has no swap to misplace an op after")
	}
	_, want := bad.AccessMap()
	if want == nil {
		t.Fatal("AccessMap accepted an op after the closing swap")
	}
	for _, depth := range []int{0, 1, 4} {
		base := runtime.NumGoroutine()
		dir := t.TempDir()
		v, err := NewUniform(n, l, dir)
		if err != nil {
			t.Fatal(err)
		}
		v.SetPrefetch(depth)
		err = v.Run(&bad)
		if err == nil {
			t.Fatalf("depth %d: malformed plan ran", depth)
		}
		if inner := errors.Unwrap(err); inner == nil || inner.Error() != want.Error() {
			t.Errorf("depth %d: got %q, want it to wrap %q", depth, err, want)
		}
		awaitGoroutineBaseline(t, base)
		assertOnlyBackingFile(t, dir, "rejected plan")
		amps, err := v.Amplitudes()
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range amps {
			if a != amps[0] {
				t.Fatalf("depth %d: rejected plan modified amplitude %d", depth, i)
			}
		}
		if err := v.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPipelineTelemetry checks the pipeline's observability contract: the
// prefetch hit/miss counters account for every chunk of every stage pass,
// chunk read/write counters move, spans land on the engine and I/O
// timelines, and bytes-in-flight returns to zero once the run drains.
func TestPipelineTelemetry(t *testing.T) {
	for _, depth := range []int{0, 3} {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) { testPipelineTelemetry(t, depth) })
	}
}

func testPipelineTelemetry(t *testing.T, depth int) {
	n, l := 10, 6
	_, plan := buildPlan(t, n, l, 14, 9)
	tel := telemetry.New()
	v, err := NewUniform(n, l, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	v.SetPrefetch(depth)
	v.SetTelemetry(tel)
	if err := v.Run(plan); err != nil {
		t.Fatal(err)
	}
	reg := tel.Registry()
	hits := reg.Counter("oocvec.prefetch_hits").Value()
	misses := reg.Counter("oocvec.prefetch_misses").Value()
	read := reg.Counter("oocvec.chunks_read").Value()
	written := reg.Counter("oocvec.chunks_written").Value()
	if hits+misses == 0 {
		t.Fatal("no prefetch hit/miss accounting recorded")
	}
	if hits+misses != read {
		t.Errorf("hits+misses = %d, want the %d chunks read", hits+misses, read)
	}
	if read != written {
		t.Errorf("chunks read %d != chunks written %d", read, written)
	}
	// One pass over the file per stage, at depth 0 as at any other.
	if onePass := int64(plan.Stages() * v.Chunks()); read != onePass {
		t.Errorf("chunks read %d, want stages × chunks = %d", read, onePass)
	}
	if got := reg.Gauge("oocvec.bytes_in_flight").Value(); got != 0 {
		t.Errorf("bytes in flight %d after drain, want 0", got)
	}
	// The state in memory is the stage's pool, depth+1 chunk buffers, and
	// the staging buffer of the writeback that combines the plan's
	// post-swap chunks: none at depth 0, 2^writeGroupBits chunks at depth 3.
	want := int64(depth+1) * 16 << l
	if depth > 0 {
		want += 16 << (l + writeGroupBits)
	}
	if got := reg.Gauge("mem.state_bytes").Value(); got != want {
		t.Errorf("mem.state_bytes = %d, want %d", got, want)
	}
	if tel.SpanCount() == 0 {
		t.Error("no spans recorded")
	}
}

// TestPrefetchClamp covers the degenerate depths.
func TestPrefetchClamp(t *testing.T) {
	v, err := New(8, 5, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	v.SetPrefetch(-3)
	if v.Prefetch() != 0 {
		t.Errorf("negative depth not clamped: %d", v.Prefetch())
	}
	v.SetPrefetch(7)
	if v.Prefetch() != 7 {
		t.Errorf("Prefetch() = %d, want 7", v.Prefetch())
	}
	// A mismatched plan must be rejected before any pipeline spins up.
	_, plan := buildPlanHelper(t)
	if err := v.Run(plan); err == nil {
		t.Error("mismatched plan accepted by pipelined Run")
	}
}
