// Package verify is the differential + metamorphic verification subsystem:
// the machinery that proves the repo's independently-optimized execution
// paths — naive statevec, specialized/generated kernels, scheduled fused
// plans, the distributed global-to-local swap engine at several (g, l)
// splits, and the De Raedt-style per-gate baseline — are exact
// implementations of the same (1⊗…⊗U⊗…⊗1)|Ψ⟩ semantics.
//
// Three layers:
//
//   - The differential engine (diff.go) runs seeded random circuits and
//     library/supremacy instances through every backend pair and reports
//     max-amplitude and fidelity deltas, minimizing a replayable text
//     reproducer on divergence.
//   - The metamorphic layer (metamorphic.go) checks invariants that need
//     no reference: norm preservation, gate identities (HH=I, T⁴=S², CZ
//     symmetry, …), commuting-gate reorder invariance and
//     qubit-permutation conjugation.
//   - Fault scenarios rerun the distributed backends under the seeded
//     adversity of mpi.FaultPlan (delayed posts, out-of-order delivery,
//     barrier jitter) and demand bit-identical agreement — validating the
//     communication layer off the happy path.
//   - The recovery sweep (recovery.go) kills a rank at every collective
//     entry and corrupts every payload exchange of a checkpointed
//     distributed run, then demands that restart-from-snapshot ends
//     bitwise identical to the uninterrupted run.
//
// cmd/qverify exposes the whole harness for CI and soak runs.
package verify

import (
	"fmt"
	"io"
	"strings"

	"qusim/internal/circuit"
	"qusim/internal/mpi"
)

// Options configures a harness run.
type Options struct {
	// Qubits sizes every generated circuit (default 8 quick / 10 full).
	Qubits int
	// Circuits is the number of seeded random circuits in the matrix
	// (default 20 quick / 40 full); library circuits are added on top.
	Circuits int
	// Gates per random circuit (default 6·Qubits).
	Gates int
	// Seed derives every circuit and fault seed; runs replay exactly.
	Seed int64
	// Tol is the divergence tolerance on max-amplitude delta.
	Tol float64
	// F32Tol is the tolerance for the single-precision backends, which are
	// compared in a separate epsilon-tolerant engine: float32 carries ~7
	// decimal digits, and the deviation grows with circuit depth, so the
	// default 5e-4 covers the harness's deepest random circuits with margin
	// while still catching any structural bug (wrong amplitude, wrong
	// position), which produces O(1) deltas.
	F32Tol float64
	// Quick trims the backend matrix and circuit count for CI.
	Quick bool
	// FaultCircuits is the number of circuits rerun under fault injection
	// (default 3 quick / 6 full).
	FaultCircuits int
	// Log, when non-nil, receives per-phase progress lines.
	Log io.Writer
}

func (o *Options) setDefaults() {
	if o.Qubits == 0 {
		if o.Quick {
			o.Qubits = 8
		} else {
			o.Qubits = 10
		}
	}
	if o.Circuits == 0 {
		if o.Quick {
			o.Circuits = 20
		} else {
			o.Circuits = 40
		}
	}
	if o.Gates == 0 {
		o.Gates = 6 * o.Qubits
	}
	if o.Tol == 0 {
		o.Tol = 1e-10
	}
	if o.F32Tol == 0 {
		o.F32Tol = 5e-4
	}
	if o.FaultCircuits == 0 {
		if o.Quick {
			o.FaultCircuits = 3
		} else {
			o.FaultCircuits = 6
		}
	}
}

// Report aggregates a full harness run; a Run that returned no error filled
// in every engine and the recovery sweep.
type Report struct {
	Differential *Engine // the clean differential matrix
	F32          *Engine // single-precision backends at the epsilon tolerance
	Blocked      *Engine // blocked vs per-op execution of one plan, bitwise, per f64 storage
	BlockedF32   *Engine // the same for the complex64 storage
	Faults       *Engine // fault-injection scenarios (distributed backends)

	MetamorphicRun    int
	MetamorphicFailed []string // "name: error" per failed property

	FaultScenarios int   // fault-injected backend pairs exercised
	FaultEvents    int64 // perturbations injected across all scenarios

	Recovery *RecoveryReport // crash/corruption checkpoint-recovery sweep
}

// Failed reports whether any layer found a violation.
func (r *Report) Failed() bool {
	return r.Differential.Failed() || r.F32.Failed() || r.Blocked.Failed() || r.BlockedF32.Failed() ||
		r.Faults.Failed() || len(r.MetamorphicFailed) > 0 || r.Recovery.Failed()
}

// BlockedQubits sizes the circuits of the blocked-vs-per-op rows: at two
// global qubits the shards of every storage — the whole vector, a rank's
// share, a file chunk — hold 2^17 amplitudes or more, above the 2^16
// (complex128) and 2^17 (complex64, whole vector of 2^19) of a cache block,
// so the plan-executing back ends run their runs block by block.
const BlockedQubits = 19

// MatrixBlocked returns the per-op references and, per storage, the
// plan-executing back end held to them bit for bit.
func MatrixBlocked() (ref Backend, backends []Backend, ref32 Backend, backends32 []Backend) {
	return PerOp(2), []Backend{Scheduled(2), Distributed(4), OutOfCore(2, 3)},
		F32PerOp(2), []Backend{F32Scheduled(2)}
}

// Matrix returns the default backend matrix compared against the naive
// dense reference. Quick trims redundant configurations. To add a new
// backend to the differential matrix, append it here (see DESIGN.md §6).
func Matrix(quick bool) (ref Backend, backends []Backend) {
	ref = Naive()
	backends = []Backend{
		Kernel(),
		Permuted(7),
		Scheduled(2),
		PaperTwin(Scheduled(2)),
		Distributed(4),
		PaperTwin(Distributed(4)),
		Baseline(4),
		OutOfCore(2, 0),
		OutOfCore(2, 3),
		PaperTwin(OutOfCore(2, 3)),
	}
	if !quick {
		backends = append(backends,
			Scheduled(3),
			PaperTwin(Scheduled(3)),
			Distributed(2),
			Distributed(8),
			PaperTwin(Distributed(8)),
			Baseline(8),
			OutOfCore(3, 1),
			PaperTwin(OutOfCore(3, 1)),
			OutOfCore(2, 8),
		)
	}
	return ref, backends
}

// MatrixF32 returns the single-precision backends, compared against the
// same naive dense reference under the epsilon tolerance Options.F32Tol.
// They live in their own engine so a float32 rounding excursion can never
// mask (or be masked by) an exact-path divergence.
func MatrixF32(quick bool) []Backend {
	backends := []Backend{
		F32(),
		F32Scheduled(2),
		PaperTwin(F32Scheduled(2)),
		DistributedF32(4),
	}
	if !quick {
		backends = append(backends, F32Scheduled(3), PaperTwin(F32Scheduled(3)))
	}
	return backends
}

// Run executes the full harness: differential matrix, metamorphic suite,
// and fault-injection scenarios. Violations land in the Report; the error
// covers only harness-level failures.
func Run(opts Options) (*Report, error) {
	opts.setDefaults()
	logf := func(format string, args ...any) {
		if opts.Log != nil {
			fmt.Fprintf(opts.Log, format+"\n", args...)
		}
	}

	ref, backends := Matrix(opts.Quick)
	f32backends := MatrixF32(opts.Quick)
	engine := NewEngine(ref, backends, opts.Tol)
	f32engine := NewEngine(ref, f32backends, opts.F32Tol)
	rep := &Report{Differential: engine, F32: f32engine}

	// Phase 1: differential matrix over seeded random + library circuits.
	// Each circuit goes through the exact engine and, at the epsilon
	// tolerance, the single-precision one.
	logf("phase 1: differential matrix (%d random + library + catalog circuits, %d backends + %d single-precision at tol %.1e)",
		opts.Circuits, len(backends), len(f32backends), opts.F32Tol)
	var circuits []*circuit.Circuit
	for i := 0; i < opts.Circuits; i++ {
		circuits = append(circuits, Random(RandomOptions{
			Qubits: opts.Qubits, Gates: opts.Gates, Seed: opts.Seed + int64(i),
			// Half the circuits include dense entanglers (CNOT/SWAP); the
			// baseline backend skips those it cannot place locally.
			DenseEntanglers: i%2 == 1,
		}))
	}
	circuits = append(append(circuits, Library(opts.Qubits, opts.Seed)...), Catalog(opts.Qubits, opts.Seed)...)
	for _, c := range circuits {
		for _, e := range []*Engine{engine, f32engine} {
			if err := e.Check(c); err != nil {
				return rep, err
			}
		}
	}
	logf("%s%s", engine.Summary(), strings.TrimRight(f32engine.Summary(), "\n"))

	// Phase 1b: the same plan block by block and op by op, per storage, on
	// states large enough to have blocks. Tolerance zero: the two executions
	// apply the same instructions to every amplitude.
	ref64, blocked64, ref32, blocked32 := MatrixBlocked()
	logf("phase 1b: blocked vs per-op (%d qubits, %d+%d storages, bitwise)", BlockedQubits, len(blocked64), len(blocked32))
	rep.Blocked, rep.BlockedF32 = NewEngine(ref64, blocked64, 0), NewEngine(ref32, blocked32, 0)
	rep.Blocked.Title, rep.BlockedF32.Title = "blocked vs per-op", "blocked vs per-op"
	bigger := []*circuit.Circuit{
		circuit.QFT(BlockedQubits),
		Random(RandomOptions{Qubits: BlockedQubits, Gates: 6 * BlockedQubits, Seed: opts.Seed, DenseEntanglers: true}),
	}
	for _, c := range bigger {
		for _, e := range []*Engine{rep.Blocked, rep.BlockedF32} {
			if err := e.Check(c); err != nil {
				return rep, err
			}
		}
	}
	logf("%s%s", rep.Blocked.Summary(), strings.TrimRight(rep.BlockedF32.Summary(), "\n"))

	// Phase 2: metamorphic properties.
	props := Properties(opts.Qubits, opts.Seed)
	logf("phase 2: %d metamorphic properties", len(props))
	for _, p := range props {
		rep.MetamorphicRun++
		if err := p.Check(); err != nil {
			rep.MetamorphicFailed = append(rep.MetamorphicFailed,
				fmt.Sprintf("%s: %v", p.Name, err))
			logf("  %-26s FAILED: %v", p.Name, err)
		} else {
			logf("  %-26s ok", p.Name)
		}
	}

	// Phase 3: fault injection. The distributed backends rerun under
	// seeded MPI adversity and must still match the naive reference.
	faulty := []Backend{
		DistributedFaulty(4, mpi.DefaultFaults(opts.Seed+1)),
		BaselineFaulty(4, mpi.DefaultFaults(opts.Seed+2)),
	}
	if !opts.Quick {
		faulty = append(faulty, DistributedFaulty(8, mpi.DefaultFaults(opts.Seed+3)))
	}
	logf("phase 3: fault injection (%d scenarios × %d circuits)", len(faulty), opts.FaultCircuits)
	faultEngine := NewEngine(ref, faulty, opts.Tol)
	rep.Faults = faultEngine
	for i := 0; i < opts.FaultCircuits; i++ {
		c := Random(RandomOptions{
			Qubits: opts.Qubits, Gates: opts.Gates, Seed: opts.Seed + 1000 + int64(i),
		})
		if err := faultEngine.Check(c); err != nil {
			return rep, err
		}
	}
	rep.FaultScenarios = len(faulty)
	for _, b := range faulty {
		if row, ok := b.(*planBackend); ok {
			rep.FaultEvents += row.FaultEvents()
		}
	}
	logf("%s", strings.TrimRight(faultEngine.Summary(), "\n"))
	logf("injected %d fault events", rep.FaultEvents)

	// Phase 4: checkpoint recovery. A distributed run is crashed at every
	// collective entry (all stage boundaries) and corrupted at every payload
	// exchange; each run must restart from its snapshots and finish bitwise
	// identical to the clean run.
	logf("phase 4: checkpoint recovery sweep")
	rep.Recovery = CheckRecovery(opts, 4, logf)
	rep.FaultEvents += rep.Recovery.FaultEvents

	return rep, nil
}

// String renders the full report.
func (r *Report) String() string {
	var b strings.Builder
	for _, e := range []*Engine{r.Differential, r.F32, r.Blocked, r.BlockedF32} {
		b.WriteString(e.Summary())
	}
	fmt.Fprintf(&b, "metamorphic: %d/%d properties passed\n",
		r.MetamorphicRun-len(r.MetamorphicFailed), r.MetamorphicRun)
	for _, f := range r.MetamorphicFailed {
		fmt.Fprintf(&b, "  FAILED %s\n", f)
	}
	fmt.Fprintf(&b, "fault injection: %d scenarios, %d perturbations\n",
		r.FaultScenarios, r.FaultEvents)
	b.WriteString(r.Faults.Summary())
	if r.Recovery.Exchanges > 0 {
		fmt.Fprintf(&b, "recovery: %d crash + %d corruption points, %d restarts, %d snapshot resumes\n",
			r.Recovery.CrashPoints, r.Recovery.CorruptPoints, r.Recovery.Restarts, r.Recovery.Restored)
	} else {
		fmt.Fprintf(&b, "recovery: %d crash points (no exchange to corrupt), %d restarts, %d snapshot resumes\n",
			r.Recovery.CrashPoints, r.Recovery.Restarts, r.Recovery.Restored)
	}
	for _, f := range r.Recovery.Failures {
		fmt.Fprintf(&b, "  FAILED %s\n", f)
	}
	var divs []Divergence
	for _, e := range []*Engine{r.Differential, r.Faults, r.F32, r.Blocked, r.BlockedF32} {
		divs = append(divs, e.Divergences...)
	}
	switch {
	case len(divs) == 0 && r.Failed():
		b.WriteString("RESULT: no divergence, but a check above FAILED\n")
		return b.String()
	case len(divs) == 0:
		b.WriteString("RESULT: all execution paths agree\n")
		return b.String()
	}
	fmt.Fprintf(&b, "RESULT: %d divergence(s)\n", len(divs))
	for _, d := range divs {
		fmt.Fprintf(&b, "--- %s vs reference on %s: maxΔamp=%.3e |1-F|=%.3e, minimized to %d gates:\n%s\n",
			d.Backend, d.Circuit, d.MaxDelta, d.FidDelta, d.ReproducerGates, d.Reproducer)
	}
	return b.String()
}
