package verify

import (
	"fmt"
	"os"
	"time"

	"qusim/internal/ckpt"
	"qusim/internal/dist"
	"qusim/internal/mpi"
	"qusim/internal/schedule"
)

// The recovery scenario proves the checkpoint/restart path end to end: a
// distributed run is killed at EVERY collective entry in turn — which
// sweeps every stage boundary, including the barriers inside the snapshot
// protocol itself — restarted from the newest valid snapshot, and must
// finish with amplitudes bitwise identical to an uninterrupted run. A
// second sweep corrupts every payload-carrying exchange instead, proving
// the checksum layer feeds the same recovery loop.

// RecoveryReport summarizes the crash/corruption recovery sweep.
type RecoveryReport struct {
	CrashPoints   int // collective entries crash-tested
	Exchanges     int // payload-carrying exchanges of the clean run
	CorruptPoints int // payload exchanges corruption-tested
	Restarts      int // recovery attempts summed over all runs
	Restored      int // attempts that resumed from a snapshot
	FaultEvents   int64
	Failures      []string
}

// Failed reports whether any recovery run misbehaved.
func (r *RecoveryReport) Failed() bool { return r != nil && len(r.Failures) > 0 }

// maxRecoveryPoints bounds the sweeps so a counter bug cannot loop the
// harness forever; real plans at harness scale stay far below it.
const maxRecoveryPoints = 512

// CheckRecovery runs the recovery sweeps on a seeded random circuit at the
// given rank count and returns the findings.
func CheckRecovery(opts Options, ranks int, logf func(string, ...any)) *RecoveryReport {
	rep := &RecoveryReport{}
	fail := func(format string, args ...any) {
		rep.Failures = append(rep.Failures, fmt.Sprintf(format, args...))
		logf("  FAILED: "+format, args...)
	}

	c := Random(RandomOptions{Qubits: opts.Qubits, Gates: opts.Gates, Seed: opts.Seed + 2000})
	l := c.N - 2
	if ranks != 4 || l < minLocalQubits(c) {
		// The sweep is written for the quick 4-rank geometry; widen here if
		// the harness ever needs other splits.
		fail("recovery sweep needs 4 ranks and l=%d ≥ %d local qubits", l, minLocalQubits(c))
		return rep
	}
	plan, err := schedule.Build(c, scheduleOptions(l, schedule.CostTable{}))
	if err != nil {
		fail("building recovery plan: %v", err)
		return rep
	}
	clean, err := dist.Run(plan, dist.Options{Ranks: ranks, Init: dist.InitZero, GatherState: true})
	if err != nil {
		fail("clean reference run: %v", err)
		return rep
	}

	// one recovery run with the given hard fault armed; returns whether the
	// fault actually fired (false ⇒ the sweep walked past the last
	// injection point and can stop).
	runOne := func(kind string, point int, fp *mpi.FaultPlan, fired func() bool) bool {
		dir, err := os.MkdirTemp("", "qverify-ckpt-*")
		if err != nil {
			fail("%s point %d: temp dir: %v", kind, point, err)
			return false
		}
		defer os.RemoveAll(dir)
		res, err := dist.Run(plan, dist.Options{
			Ranks: ranks, Init: dist.InitZero, GatherState: true,
			Faults:       fp,
			Checkpoint:   &ckpt.Policy{Dir: dir},
			CommDeadline: 30 * time.Second, // hangs become failures, never stalls
		})
		if err != nil {
			fail("%s point %d: run not recovered: %v", kind, point, err)
			return false
		}
		if !fired() {
			return false // injection point past the end of the run
		}
		if res.FaultEvents == 0 {
			fail("%s point %d: fault fired but FaultEvents == 0", kind, point)
		}
		if res.Restarts == 0 {
			fail("%s point %d: fault fired but no restart happened", kind, point)
		}
		rep.Restarts += res.Restarts
		rep.Restored += res.CheckpointsRestored
		rep.FaultEvents += res.FaultEvents
		for i := range clean.Amplitudes {
			if clean.Amplitudes[i] != res.Amplitudes[i] {
				fail("%s point %d: amplitude %d differs after recovery (%v vs %v)",
					kind, point, i, clean.Amplitudes[i], res.Amplitudes[i])
				break
			}
		}
		return true
	}

	// Sweep 1: kill a rank at every collective entry.
	for k := 0; k < maxRecoveryPoints; k++ {
		crash := &mpi.CrashFault{Rank: k % ranks, Collective: k}
		if !runOne("crash", k, &mpi.FaultPlan{Crash: crash}, crash.Fired) {
			break
		}
		rep.CrashPoints++
	}

	// Sweep 2: corrupt every payload-carrying exchange, of which a plan that
	// never swaps (a circuit of a few gates) has none.
	rep.Exchanges = clean.CommSteps
	for e := 0; e < maxRecoveryPoints && rep.Exchanges > 0; e++ {
		corrupt := &mpi.CorruptFault{Rank: e % ranks, Exchange: e}
		if !runOne("corrupt", e, &mpi.FaultPlan{Corrupt: corrupt}, corrupt.Fired) {
			break
		}
		rep.CorruptPoints++
	}
	for _, f := range rep.sweepFailures() {
		fail("%s", f)
	}

	logf("  %d crash points + %d corruption points recovered (%d restarts, %d resumed from snapshots)",
		rep.CrashPoints, rep.CorruptPoints, rep.Restarts, rep.Restored)
	return rep
}

// sweepFailures returns what the sweeps' counts show went wrong: a crash
// sweep that injected nothing or did not terminate, and a corruption sweep
// that injected nothing although the run had exchanges to corrupt.
func (r *RecoveryReport) sweepFailures() []string {
	var out []string
	if r.CrashPoints == 0 {
		out = append(out, "crash sweep never injected anything")
	}
	if r.CrashPoints >= maxRecoveryPoints {
		out = append(out, fmt.Sprintf("crash sweep did not terminate within %d points", maxRecoveryPoints))
	}
	if r.Exchanges > 0 && r.CorruptPoints == 0 {
		out = append(out, "corruption sweep never injected anything")
	}
	return out
}
