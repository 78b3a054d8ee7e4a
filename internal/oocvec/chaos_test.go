package oocvec

import (
	"fmt"
	"slices"
	"testing"

	"qusim/internal/chaos"
	"qusim/internal/ckpt"
	"qusim/internal/dist"
	"qusim/internal/fsio"
	"qusim/internal/schedule"
	"qusim/internal/statevec"
	"qusim/internal/telemetry"
)

// Disk-fault scenarios for the out-of-core engine: transient read errors
// must be absorbed by the bounded retry (or surface classified when they
// outlast it, and a checkpointed run restart on them), and a full disk must
// cost checkpoints or restarts, never correctness.

// chaosVector builds a uniform vector whose backing file runs on fs.
func chaosVector(t *testing.T, n, l int, fs fsio.FS) *Vector {
	t.Helper()
	v, err := Create(fs, n, l, t.TempDir(), statevec.StartUniform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { v.Close() })
	return v
}

func TestTransientReadWindowRetriedInvisibly(t *testing.T) {
	n, l := 10, 7
	_, plan := buildPlan(t, n, l, 12, 3)
	clean := oocAmps(t, n, l, func(v *Vector) error { return v.Run(plan) })

	// A 2-op failure window fits inside the 3-attempt retry budget (each
	// retry re-issues the read as a fresh op, walking past the window).
	fs := chaos.NewFS(chaos.DiskFaults{ReadErrAt: 5, ReadErrRun: 2}, nil)
	v := chaosVector(t, n, l, fs)
	tel := telemetry.New()
	v.SetTelemetry(tel)
	if err := v.Run(plan); err != nil {
		t.Fatalf("transient window inside the retry budget surfaced: %v", err)
	}
	if fs.Stats().ReadErrors == 0 {
		t.Fatal("window never fired — the scenario tested nothing")
	}
	if got := tel.Counter("oocvec.io_retries").Value(); got == 0 {
		t.Error("oocvec.io_retries did not count the retries")
	}
	got, err := v.Amplitudes()
	if err != nil {
		t.Fatal(err)
	}
	for i := range clean {
		if clean[i] != got[i] {
			t.Fatalf("amplitude %d differs after retried reads: %v vs %v", i, clean[i], got[i])
		}
	}
}

func TestTransientReadWindowBeyondBudgetSurfacesClassified(t *testing.T) {
	n, l := 10, 7
	_, plan := buildPlan(t, n, l, 12, 3)
	fs := chaos.NewFS(chaos.DiskFaults{ReadErrAt: 5, ReadErrRun: 64}, nil)
	v := chaosVector(t, n, l, fs)
	err := v.Run(plan)
	if err == nil {
		t.Fatal("a window far beyond the retry budget was swallowed")
	}
	// The classification must survive the wrapping: RunCheckpointed's
	// restart loop (ckpt.Policy.Restart) decides to restart the run on it.
	if !fsio.IsTransient(err) {
		t.Errorf("exhausted transient window lost its classification: %v", err)
	}
}

func TestCheckpointENOSPCSkipsButFinishes(t *testing.T) {
	n, l := 10, 7
	_, plan := buildPlan(t, n, l, 16, 4)
	if plan.Stages() < 2 {
		t.Fatalf("plan has %d stages; the scenario needs at least 2", plan.Stages())
	}
	clean := oocAmps(t, n, l, func(v *Vector) error { return v.Run(plan) })

	// The snapshot directory's disk is permanently full; the vector's own
	// backing file stays healthy. Every checkpoint is starved — the run
	// must trade them for replay risk and still finish bitwise clean.
	full := chaos.NewFS(chaos.DiskFaults{NoSpaceAt: 1, NoSpaceRun: 1 << 30}, nil)

	v, err := NewUniform(n, l, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	tel := telemetry.New()
	v.SetTelemetry(tel)
	restored, written, err := v.RunCheckpointed(plan, &ckpt.Policy{Dir: t.TempDir(), FS: full}, false)
	if err != nil {
		t.Fatalf("full snapshot disk aborted the run: %v", err)
	}
	if restored != -1 || written != 0 {
		t.Errorf("restored=%d written=%d, want -1 and 0 on a fully starved disk", restored, written)
	}
	if v.CheckpointsSkipped() == 0 {
		t.Error("CheckpointsSkipped() = 0 though every snapshot was starved")
	}
	if got := tel.Counter("ckpt.skipped").Value(); got == 0 {
		t.Error("ckpt.skipped telemetry never fired")
	}

	got, err := v.Amplitudes()
	if err != nil {
		t.Fatal(err)
	}
	for i := range clean {
		if clean[i] != got[i] {
			t.Fatalf("amplitude %d differs after skipped checkpoints: %v vs %v", i, clean[i], got[i])
		}
	}
}

func TestCheckpointENOSPCWindowSkipsOnlyStarvedSnapshots(t *testing.T) {
	n, l := 10, 7
	_, plan := buildPlan(t, n, l, 16, 4)
	if plan.Stages() < 3 {
		t.Skipf("plan has %d stages; the scenario needs at least 3", plan.Stages())
	}
	// A starved checkpoint consumes exactly one write op (the failing
	// CreateTemp), so a 1-op window starves the first snapshot only: later
	// ones commit, and the resulting directory still resumes.
	window := chaos.NewFS(chaos.DiskFaults{NoSpaceAt: 1, NoSpaceRun: 1}, nil)

	v, err := NewUniform(n, l, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	dir := t.TempDir()
	_, written, err := v.RunCheckpointed(plan, &ckpt.Policy{Dir: dir, FS: window}, false)
	if err != nil {
		t.Fatalf("transient snapshot-disk window aborted the run: %v", err)
	}
	if v.CheckpointsSkipped() == 0 {
		t.Fatal("window never starved a checkpoint — the scenario tested nothing")
	}
	if written == 0 {
		t.Error("no checkpoint committed after the window passed")
	}
	want, err := v.Amplitudes()
	if err != nil {
		t.Fatal(err)
	}

	// The survivors must be genuinely restorable.
	v2, err := NewUniform(n, l, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	restored, _, err := v2.RunCheckpointed(plan, &ckpt.Policy{Dir: dir}, true)
	if err != nil {
		t.Fatal(err)
	}
	if restored < 0 {
		t.Error("resume found no snapshot though some committed")
	}
	got, err := v2.Amplitudes()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("amplitude %d differs after resume across a skipped snapshot: %v vs %v", i, want[i], got[i])
		}
	}
}

// dataPathOps runs plan checkpointed at prefetch depth, on a vector whose
// state file is on a counting FS, and returns the read and write ops the
// state file took after Create's: the stages' alone, since the last stage
// sums the norm and entropy dist's reduction reports.
func dataPathOps(t *testing.T, n, l, depth int, plan *schedule.Plan) (reads, writes int) {
	t.Helper()
	probe := chaos.NewFS(chaos.DiskFaults{}, nil)
	v := chaosVector(t, n, l, probe)
	v.SetPrefetch(depth)
	created := probe.Stats()
	if _, _, err := v.RunCheckpointed(plan, &ckpt.Policy{Dir: t.TempDir()}, false); err != nil {
		t.Fatal(err)
	}
	st := probe.Stats()
	return int(st.ReadOps - created.ReadOps), int(st.WriteOps - created.WriteOps)
}

// runPaged is RunCheckpointed as dist.Run, which reports the restarts and
// restores of the run.
func runPaged(t *testing.T, v *Vector, plan *schedule.Plan) (*dist.Result, error) {
	return dist.Run(plan, dist.Options{Ranks: 1, Init: v.start, Store: v, Checkpoint: &ckpt.Policy{Dir: t.TempDir()}})
}

// recoverPaged runs plan checkpointed at prefetch depth on a uniform vector
// whose state file is on fs, and holds the result to clean bit for bit and
// the restart and restore counts to the want values.
func recoverPaged(t *testing.T, n, l, depth int, plan *schedule.Plan, fs *chaos.FS, clean []complex128, restarts, restored int) {
	t.Helper()
	v := chaosVector(t, n, l, fs)
	v.SetPrefetch(depth)
	res, err := runPaged(t, v, plan)
	if err != nil {
		t.Fatalf("the run did not recover: %v", err)
	}
	if res.Restarts != restarts || res.CheckpointsRestored != restored {
		t.Errorf("%d restarts, %d restored; want %d and %d", res.Restarts, res.CheckpointsRestored, restarts, restored)
	}
	got, err := v.Amplitudes()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, clean) {
		t.Error("the recovered run differs from a clean one")
	}
}

// TestRecoveryFromDataPathReadWindow: a read-error window on the state file
// longer than retryIO's budget restarts the run — from the state the vector
// was created in when it hits the first stage that reads, before any
// snapshot, and from the newest snapshot when it hits the last stage — and
// it ends bit for bit on the clean run's state. Stage 0 computes the start
// state and reads nothing, so the "stage0" window, on the second read,
// opens in stage 1, before boundary 1's snapshot commits.
func TestRecoveryFromDataPathReadWindow(t *testing.T) {
	n, l := 10, 7
	_, plan := buildPlan(t, n, l, 16, 4)
	if plan.Stages() < 3 {
		t.Fatalf("plan has %d stages; the late window needs a committed snapshot before the last", plan.Stages())
	}
	clean := oocAmps(t, n, l, func(v *Vector) error { return v.Run(plan) })
	for _, depth := range []int{0, 2} {
		reads, _ := dataPathOps(t, n, l, depth, plan)
		for _, tc := range []struct {
			name     string
			at       int
			restored int
		}{{"stage0", 2, 0}, {"last-stage", reads - 1, 1}} {
			t.Run(fmt.Sprintf("%s/depth%d", tc.name, depth), func(t *testing.T) {
				fs := chaos.NewFS(chaos.DiskFaults{ReadErrAt: tc.at, ReadErrRun: ioRetryAttempts + 1}, nil)
				recoverPaged(t, n, l, depth, plan, fs, clean, 1, tc.restored)
				if got := fs.Stats().ReadErrors; got != ioRetryAttempts+1 {
					t.Errorf("%d read errors injected, want %d", got, ioRetryAttempts+1)
				}
			})
		}
	}
}

// TestRecoveryFromDataPathENOSPC: a full-disk window on the state file's
// writeback restarts the run once per write it fails — a restart's restore
// is a write too, so past a snapshot every restart starts from it; its
// refill writes nothing — and it ends bit for bit on
// the clean run's state. The window opens on stage 0's first write, before
// any snapshot, or on the run's last write, past the newest.
func TestRecoveryFromDataPathENOSPC(t *testing.T) {
	n, l := 10, 7
	_, plan := buildPlan(t, n, l, 16, 4)
	clean := oocAmps(t, n, l, func(v *Vector) error { return v.Run(plan) })
	const created = 1 // Create's temp file: it writes no chunk
	const window = 3
	for _, depth := range []int{0, 2} {
		_, writes := dataPathOps(t, n, l, depth, plan)
		for _, tc := range []struct {
			name     string
			at       int
			restored int
		}{{"stage0", created + 1, 0}, {"last-write", created + writes, window}} {
			t.Run(fmt.Sprintf("%s/depth%d", tc.name, depth), func(t *testing.T) {
				fs := chaos.NewFS(chaos.DiskFaults{NoSpaceAt: tc.at, NoSpaceRun: window}, nil)
				recoverPaged(t, n, l, depth, plan, fs, clean, window, tc.restored)
			})
		}
	}
}

// TestRecoveryGivesUpAfterMaxRestarts: a read-error window no restart
// outlasts ends the run after ckpt.MaxRestarts restarts with an error that
// still says transient.
func TestRecoveryGivesUpAfterMaxRestarts(t *testing.T) {
	n, l := 10, 7
	_, plan := buildPlan(t, n, l, 12, 3)
	v := chaosVector(t, n, l, chaos.NewFS(chaos.DiskFaults{ReadErrAt: 1, ReadErrRun: 1 << 30}, nil))
	res, err := runPaged(t, v, plan)
	if err == nil || !fsio.IsTransient(err) {
		t.Fatalf("err = %v, want a transient error", err)
	}
	if res.Restarts != ckpt.MaxRestarts {
		t.Errorf("%d restarts, want ckpt.MaxRestarts = %d", res.Restarts, ckpt.MaxRestarts)
	}
}
