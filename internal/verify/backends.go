package verify

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"

	"qusim/internal/circuit"
	"qusim/internal/dist"
	"qusim/internal/f32vec"
	"qusim/internal/gate"
	"qusim/internal/harness/refkernel"
	"qusim/internal/kernels"
	"qusim/internal/mpi"
	"qusim/internal/oocvec"
	"qusim/internal/schedule"
	"qusim/internal/statevec"
)

// Backend is one execution path of the simulator. Run simulates c from
// |0…0⟩ and returns the final amplitudes in logical qubit order (qubit q =
// bit q of the index), so any two backends are directly comparable
// amplitude-for-amplitude.
type Backend interface {
	Name() string
	Run(c *circuit.Circuit) ([]complex128, error)
}

// ErrUnsupported marks a circuit a backend cannot execute — e.g. the
// per-gate baseline scheme given a dense multi-qubit gate on a global
// qubit, or a distributed split that leaves no local qubits. The
// differential engine records these as skips, not failures.
var ErrUnsupported = errors.New("verify: circuit unsupported by backend")

// per-gate backends -----------------------------------------------------------

type naiveBackend struct{}

// Naive returns the reference backend: the two-state-vector kernel of
// Sec. 3.1 (package refkernel) with every gate applied as a dense matrix,
// no diagonal or specialization fast path. This is the closest the repo has
// to a direct (1⊗…⊗U⊗…⊗1)|Ψ⟩ evaluation and anchors every differential
// comparison.
func Naive() Backend { return naiveBackend{} }

func (naiveBackend) Name() string { return "refkernel/naive-dense" }

func (naiveBackend) Run(c *circuit.Circuit) ([]complex128, error) {
	src, dst := make([]complex128, 1<<c.N), make([]complex128, 1<<c.N)
	src[0] = 1
	for i := range c.Gates {
		g := &c.Gates[i]
		m := g.Matrix()
		qs, perm := statevec.SortPositions(g.Qubits)
		if perm != nil {
			m = gate.PermuteQubits(m, perm)
		}
		refkernel.Naive(dst, src, m.Data, qs)
		src, dst = dst, src
	}
	return src, nil
}

type kernelBackend struct{}

// Kernel returns the single-node per-gate backend: every gate through
// statevec.Vector.Apply (diagonal fast paths included), so through the
// kernel this machine runs, after which the row is named.
func Kernel() Backend { return kernelBackend{} }

func (kernelBackend) Name() string { return "kernels/" + kernels.ISA() }

func (kernelBackend) Run(c *circuit.Circuit) ([]complex128, error) {
	v := statevec.New(c.N)
	for i := range c.Gates {
		g := &c.Gates[i]
		v.Apply(g.Matrix(), g.Qubits...)
	}
	return v.Amps, nil
}

// scheduled single-node backend ----------------------------------------------

type scheduledBackend struct {
	name    string
	globals int
	mkOpts  func(l int) schedule.Options
}

// Scheduled returns a backend that schedules the circuit with the paper's
// default options at l = n − globals local qubits and executes the fused
// plan on a single node, un-permuting the tracked qubit→bit-location
// mapping before comparison.
func Scheduled(globals int) Backend {
	return &scheduledBackend{
		name:    fmt.Sprintf("schedule/fused-g%d", globals),
		globals: globals,
		mkOpts:  defaultScheduleOptions,
	}
}

// ScheduledWith is Scheduled with custom schedule options (ablations:
// lowest-order swap policy, clustering off, …).
func ScheduledWith(name string, globals int, mkOpts func(l int) schedule.Options) Backend {
	return &scheduledBackend{name: name, globals: globals, mkOpts: mkOpts}
}

func defaultScheduleOptions(l int) schedule.Options {
	o := schedule.DefaultOptions(l)
	if o.KMax > l {
		o.KMax = l
	}
	return o
}

// scheduleOptions is defaultScheduleOptions priced by costs (the zero
// value: the scheduler's own default table).
func scheduleOptions(l int, costs schedule.CostTable) schedule.Options {
	o := defaultScheduleOptions(l)
	o.Costs = costs
	return o
}

// PaperTwin returns the twin of a plan-executing backend (Scheduled,
// Distributed, OutOfCore, F32Scheduled) that schedules with
// schedule.PaperCosts: clusters grow to the kmax cap, so the k = 3…5 dense
// kernels and the wide fused matrices stay in the matrix now that plans
// priced for this repository's kernels stop at narrower clusters.
func PaperTwin(b Backend) Backend {
	const suffix = "+paper"
	switch t := b.(type) {
	case *scheduledBackend:
		twin := *t
		twin.name += suffix
		twin.mkOpts = func(l int) schedule.Options {
			o := t.mkOpts(l)
			o.Costs = schedule.PaperCosts()
			return o
		}
		return &twin
	case *oocBackend:
		twin := *t
		twin.name, twin.costs = t.name+suffix, schedule.PaperCosts()
		return &twin
	case *distBackend:
		twin := *t
		twin.name, twin.costs = t.name+suffix, schedule.PaperCosts()
		return &twin
	case *f32Backend:
		twin := *t
		twin.name, twin.costs = t.name+suffix, schedule.PaperCosts()
		return &twin
	}
	panic(fmt.Sprintf("verify: %s executes no plan", b.Name()))
}

func (b *scheduledBackend) Name() string { return b.name }

func (b *scheduledBackend) Run(c *circuit.Circuit) ([]complex128, error) {
	l := c.N - b.globals
	if l < minLocalQubits(c) {
		return nil, ErrUnsupported
	}
	plan, err := schedule.Build(c, b.mkOpts(l))
	if err != nil {
		return nil, err
	}
	v := statevec.New(c.N)
	if err := plan.Run(v); err != nil {
		return nil, err
	}
	return unpermute(plan, v.Amps), nil
}

// out-of-core backend ---------------------------------------------------------

type oocBackend struct {
	name     string
	globals  int
	prefetch int
	costs    schedule.CostTable
}

// OutOfCore returns a backend that schedules at l = n − globals and
// executes the plan through the file-backed out-of-core engine, paging the
// state through 2^globals file chunks, one fused streamed pass per stage.
// prefetch is the pipeline's read-ahead depth: > 0 overlaps chunk I/O with
// compute, 0 runs the same pass through a single buffer — enrolling both in
// the matrix cross-checks the pipeline with and without its concurrency
// against the in-memory reference.
func OutOfCore(globals, prefetch int) Backend {
	name := fmt.Sprintf("oocvec/g%d-prefetch%d", globals, prefetch)
	return &oocBackend{name: name, globals: globals, prefetch: prefetch}
}

func (b *oocBackend) Name() string { return b.name }

func (b *oocBackend) Run(c *circuit.Circuit) ([]complex128, error) {
	l := c.N - b.globals
	if l < 1 || l < minLocalQubits(c) {
		return nil, ErrUnsupported
	}
	plan, err := schedule.Build(c, scheduleOptions(l, b.costs))
	if err != nil {
		return nil, err
	}
	v, err := oocvec.New(c.N, l, "")
	if err != nil {
		return nil, err
	}
	defer v.Close()
	v.SetPrefetch(b.prefetch)
	if err := v.Run(plan); err != nil {
		return nil, err
	}
	amps, err := v.Amplitudes()
	if err != nil {
		return nil, err
	}
	return unpermute(plan, amps), nil
}

// distributed backend ---------------------------------------------------------

type distBackend struct {
	name   string
	ranks  int
	costs  schedule.CostTable
	faults *mpi.FaultPlan
	events int64 // cumulative injected perturbations across Run calls
}

// Distributed returns a backend that schedules at l = n − log2(ranks) and
// executes across ranks simulated MPI ranks via dist.Run, gathering the
// full state.
func Distributed(ranks int) Backend {
	return &distBackend{name: fmt.Sprintf("dist/ranks%d", ranks), ranks: ranks}
}

// DistributedFaulty is Distributed with MPI fault injection armed.
func DistributedFaulty(ranks int, fp *mpi.FaultPlan) Backend {
	return &distBackend{name: fmt.Sprintf("dist/ranks%d+faults", ranks), ranks: ranks, faults: fp}
}

func (b *distBackend) Name() string { return b.name }

func (b *distBackend) Run(c *circuit.Circuit) ([]complex128, error) {
	g := bits.TrailingZeros(uint(b.ranks))
	l := c.N - g
	if l < minLocalQubits(c) {
		return nil, ErrUnsupported
	}
	plan, err := schedule.Build(c, scheduleOptions(l, b.costs))
	if err != nil {
		return nil, err
	}
	res, err := dist.Run(plan, dist.Options{
		Ranks: b.ranks, Init: dist.InitZero, GatherState: true, Faults: b.faults,
	})
	if err != nil {
		return nil, err
	}
	b.events += res.FaultEvents
	return unpermute(plan, res.Amplitudes), nil
}

// permuted-layout backend -----------------------------------------------------

type permutedBackend struct {
	name  string
	seed  int64
	every int
}

// Permuted returns a backend that exercises the single-pass bit-permutation
// kernel: every `every` gates it draws a seeded random relabeling of all n
// bit positions and applies it through statevec.PermuteBits (the compiled
// gather path), then keeps executing gates at their relocated positions.
// The final state is restored to logical order through
// PermuteBitsSwapChain — the pre-optimization transposition-chain
// implementation — so a divergence from the naive reference pins the
// gather kernel against the chain on the same random permutations. The
// fused perm+swap path gets the same treatment under MPI faults via the
// DistributedFaulty scenarios (the scheduler now emits fused swaps).
func Permuted(seed int64) Backend {
	return &permutedBackend{name: "statevec/permuted-layout", seed: seed, every: 4}
}

func (b *permutedBackend) Name() string { return b.name }

func (b *permutedBackend) Run(c *circuit.Circuit) ([]complex128, error) {
	rng := rand.New(rand.NewSource(b.seed))
	v := statevec.New(c.N)
	pos := make([]int, c.N) // pos[q] = current bit location of logical qubit q
	for q := range pos {
		pos[q] = q
	}
	mapped := make([]int, 0, 4)
	for i := range c.Gates {
		if i > 0 && i%b.every == 0 {
			perm := rng.Perm(c.N)
			v.PermuteBits(perm)
			for q := range pos {
				pos[q] = perm[pos[q]]
			}
		}
		g := &c.Gates[i]
		mapped = mapped[:0]
		for _, q := range g.Qubits {
			mapped = append(mapped, pos[q])
		}
		v.Apply(g.Matrix(), mapped...)
	}
	restore := make([]int, c.N) // bit pos[q] goes back to bit q
	for q, p := range pos {
		restore[p] = q
	}
	v.PermuteBitsSwapChain(restore)
	return v.Amps, nil
}

// per-gate baseline backend ---------------------------------------------------

type baselineBackend struct {
	name   string
	ranks  int
	spec1q bool
	faults *mpi.FaultPlan
	events int64 // cumulative injected perturbations across Run calls
}

// Baseline returns the De Raedt-style per-gate backend ([19]/[5]): fixed
// qubit↔location layout, two pairwise half-vector exchanges per dense gate
// on a global qubit, CZ/CPhase specialization on. Circuits with dense
// multi-qubit gates on global qubits are reported ErrUnsupported (the
// scheme cannot execute them).
func Baseline(ranks int) Backend {
	return &baselineBackend{name: fmt.Sprintf("baseline/ranks%d", ranks), ranks: ranks, spec1q: false}
}

// BaselineFaulty is Baseline with MPI fault injection armed.
func BaselineFaulty(ranks int, fp *mpi.FaultPlan) Backend {
	return &baselineBackend{name: fmt.Sprintf("baseline/ranks%d+faults", ranks), ranks: ranks, faults: fp}
}

func (b *baselineBackend) Name() string { return b.name }

func (b *baselineBackend) Run(c *circuit.Circuit) ([]complex128, error) {
	g := bits.TrailingZeros(uint(b.ranks))
	l := c.N - g
	if l < 1 {
		return nil, ErrUnsupported
	}
	for i := range c.Gates {
		gt := &c.Gates[i]
		if gt.K() < 2 || gt.IsDiagonal() {
			continue
		}
		for _, q := range gt.Qubits {
			if q >= l {
				return nil, ErrUnsupported
			}
		}
	}
	res, err := dist.RunBaseline(c, dist.BaselineOptions{
		Ranks: b.ranks, Init: dist.InitZero,
		Specialize2Q: true, Specialize1Q: b.spec1q,
		GatherState: true, Faults: b.faults,
	})
	if err != nil {
		return nil, err
	}
	b.events += res.FaultEvents
	return res.Amplitudes, nil
}

// single-precision backends ---------------------------------------------------

type f32Backend struct {
	name    string
	globals int // < 0: per-gate path; ≥ 0: scheduled at l = n − globals
	costs   schedule.CostTable
}

// F32 returns the single-precision per-gate backend, named like Kernel
// after the kernel set this machine runs: every gate goes through the
// complex64 kernels and the final state is widened back to complex128. It
// joins the matrix under the separate epsilon tolerance of Options.F32Tol —
// float32 amplitudes cannot meet the exact-path 1e-10 bar.
func F32() Backend {
	return &f32Backend{name: "f32vec/" + kernels.ISA(), globals: -1}
}

// F32Scheduled is F32 through the fused scheduler at l = n − globals —
// the paper's Sec. 5 outlook configuration (single precision + two-swap
// schedules).
func F32Scheduled(globals int) Backend {
	return &f32Backend{name: fmt.Sprintf("f32vec/fused-g%d", globals), globals: globals}
}

func (b *f32Backend) Name() string { return b.name }

func (b *f32Backend) Run(c *circuit.Circuit) ([]complex128, error) {
	if b.globals < 0 {
		v := f32vec.New(c.N)
		for i := range c.Gates {
			g := &c.Gates[i]
			v.ApplyGate(g.Matrix(), g.Qubits...)
		}
		return v.ToDouble().Amps, nil
	}
	l := c.N - b.globals
	if l < minLocalQubits(c) {
		return nil, ErrUnsupported
	}
	plan, err := schedule.Build(c, scheduleOptions(l, b.costs))
	if err != nil {
		return nil, err
	}
	v := f32vec.New(c.N)
	if err := v.RunPlan(plan); err != nil {
		return nil, err
	}
	return unpermute(plan, v.ToDouble().Amps), nil
}

// per-op reference of the blocked-run rows -------------------------------------

type perOpBackend struct {
	name    string
	globals int
	f32     bool
}

// PerOp returns the reference of the "blocked vs per-op" rows: the default
// plan at l = n − globals executed on the whole vector one op, one sweep of
// the state, at a time (schedule.Shard.Apply, which never forms a run). The
// plan-executing backends at the same globals build the same plan, so
// against this reference they must agree to the bit — which is only a
// statement about blocked runs on circuits whose shards exceed a cache
// block (BlockedQubits).
func PerOp(globals int) Backend {
	return &perOpBackend{name: fmt.Sprintf("schedule/per-op-g%d", globals), globals: globals}
}

// F32PerOp is PerOp on a complex64 state, widened for comparison.
func F32PerOp(globals int) Backend {
	return &perOpBackend{name: fmt.Sprintf("f32vec/per-op-g%d", globals), globals: globals, f32: true}
}

func (b *perOpBackend) Name() string { return b.name }

func (b *perOpBackend) Run(c *circuit.Circuit) ([]complex128, error) {
	l := c.N - b.globals
	if l < minLocalQubits(c) {
		return nil, ErrUnsupported
	}
	plan, err := schedule.Build(c, defaultScheduleOptions(l))
	if err != nil {
		return nil, err
	}
	var amps []complex128
	if b.f32 {
		narrow, err := runPerOp[complex64](plan)
		if err != nil {
			return nil, err
		}
		amps = make([]complex128, len(narrow))
		for i, a := range narrow {
			amps[i] = complex128(a)
		}
	} else if amps, err = runPerOp[complex128](plan); err != nil {
		return nil, err
	}
	return unpermute(plan, amps), nil
}

func runPerOp[T complex64 | complex128](plan *schedule.Plan) ([]T, error) {
	sh := schedule.Shard[T]{Amps: make([]T, 1<<plan.N), L: plan.N}
	sh.Amps[0] = 1
	for i := range plan.Ops {
		op := &plan.Ops[i]
		if err := sh.Apply(op); err != nil {
			return nil, err
		}
		for j := range op.LocalPos {
			kernels.SwapBits(sh.Amps, op.LocalPos[j], op.GlobalPos[j])
		}
	}
	return sh.Amps, nil
}

// faultCounter is implemented by backends that run under a FaultPlan; the
// harness sums the injected perturbations for reporting.
type faultCounter interface{ FaultEvents() int64 }

func (b *distBackend) FaultEvents() int64     { return b.events }
func (b *baselineBackend) FaultEvents() int64 { return b.events }

// minLocalQubits is the smallest l the scheduler can place c at: every
// dense gate needs all its qubits brought local, so l must cover the
// widest non-diagonal gate. Below that the stage partition cannot
// converge and the split is reported ErrUnsupported, not an error.
func minLocalQubits(c *circuit.Circuit) int {
	min := 1
	for i := range c.Gates {
		g := &c.Gates[i]
		if k := g.K(); k > min && !g.IsDiagonal() {
			min = k
		}
	}
	return min
}

// Unpermute maps plan-physical amplitudes back to logical qubit order —
// exported for harnesses that run an engine directly (not through a
// Backend) and need to compare its raw state against a reference.
func Unpermute(plan *schedule.Plan, phys []complex128) []complex128 {
	return unpermute(plan, phys)
}

// unpermute maps plan-physical amplitudes back to logical qubit order.
func unpermute(plan *schedule.Plan, phys []complex128) []complex128 {
	out := make([]complex128, len(phys))
	for b := range out {
		out[b] = phys[plan.PermutedIndex(b)]
	}
	return out
}
