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
	src, dst := kernels.NewAmps[complex128](1<<c.N), kernels.NewAmps[complex128](1<<c.N)
	src[0] = 1
	for i := range c.Gates {
		g := &c.Gates[i]
		qs, m := gate.Sort(g.Matrix(), g.Qubits)
		refkernel.Naive(dst, src, m.Data, qs)
		src, dst = dst, src
	}
	return src, nil
}

// gateBackend is the single-node per-gate row at precision T: every gate
// through statevec.State.Apply (diagonal fast paths included), so through the
// kernel this machine runs, after which the row is named.
type gateBackend[T statevec.Amp] struct{ name string }

// Kernel returns the double-precision per-gate backend.
func Kernel() Backend { return gateBackend[complex128]{"kernels/" + kernels.ISA()} }

// F32 returns the single-precision per-gate backend: every gate goes through
// the complex64 kernels and the final state is widened back to complex128. It
// joins the matrix under the separate epsilon tolerance of Options.F32Tol —
// float32 amplitudes cannot meet the exact-path 1e-10 bar.
func F32() Backend { return gateBackend[complex64]{"f32vec/" + kernels.ISA()} }

func (b gateBackend[T]) Name() string { return b.name }

func (gateBackend[T]) Run(c *circuit.Circuit) ([]complex128, error) {
	v := statevec.Prepare[T](statevec.StartZero, c.N)
	for i := range c.Gates {
		g := &c.Gates[i]
		v.Apply(g.Matrix(), g.Qubits...)
	}
	return widen(v.Amps), nil
}

// plan-executing backends ----------------------------------------------------

// planBackend is the one plan-executing row type. Every back end that runs a
// schedule.Plan — whole vector, complex64, rank-sharded, file-paged, op by op,
// under faults, the per-gate scheme — is this struct with a different exec;
// scheduling at l = n − globals, the ErrUnsupported check and the
// un-permutation of the tracked qubit→bit-location mapping happen once, in Run.
type planBackend struct {
	name    string
	globals int
	costs   schedule.CostTable // the zero value: the scheduler's own default table
	// planner, when not nil, plans in place of schedule.Build (and of costs).
	planner func(c *circuit.Circuit, l int) (*schedule.Plan, error)
	// exec runs plan from |0…0⟩ and returns the amplitudes in plan-physical
	// order, widened to complex128.
	exec   func(plan *schedule.Plan) ([]complex128, error)
	events *int64 // perturbations exec injected so far; nil for rows that arm no faults
}

// PlanRow enrols a plan executor as a matrix row: the only thing a new
// storage, precision or fault harness supplies is how it runs a plan.
func PlanRow(name string, globals int, exec func(plan *schedule.Plan) ([]complex128, error)) Backend {
	return &planBackend{name: name, globals: globals, exec: exec}
}

func (b *planBackend) Name() string { return b.name }

func (b *planBackend) Run(c *circuit.Circuit) ([]complex128, error) {
	l := c.N - b.globals
	if l < minLocalQubits(c) {
		return nil, ErrUnsupported
	}
	var plan *schedule.Plan
	var err error
	if b.planner != nil {
		plan, err = b.planner(c, l)
	} else {
		plan, err = schedule.Build(c, scheduleOptions(l, b.costs))
	}
	if err != nil {
		return nil, err
	}
	phys, err := b.exec(plan)
	if err != nil {
		return nil, err
	}
	return unpermute(plan, phys), nil
}

// unpermute maps plan-physical amplitudes back to logical qubit order.
func unpermute(plan *schedule.Plan, phys []complex128) []complex128 {
	out := kernels.NewAmps[complex128](len(phys))
	for b := range out {
		out[b] = phys[plan.PermutedIndex(b)]
	}
	return out
}

// scheduleOptions is the paper's default options at l local qubits, priced by
// costs.
func scheduleOptions(l int, costs schedule.CostTable) schedule.Options {
	o := schedule.DefaultOptions(l)
	if o.KMax > l {
		o.KMax = l
	}
	o.Costs = costs
	return o
}

// PaperTwin returns the twin of a plan-executing row that schedules with
// schedule.PaperCosts: clusters grow to the kmax cap, so the k = 3…5 dense
// kernels and the wide fused matrices stay in the matrix now that plans
// priced for this repository's kernels stop at narrower clusters.
func PaperTwin(b Backend) Backend {
	row, ok := b.(*planBackend)
	if !ok || row.planner != nil {
		panic(fmt.Sprintf("verify: %s schedules by no price list", b.Name()))
	}
	twin := *row
	twin.name, twin.costs = row.name+"+paper", schedule.PaperCosts()
	return &twin
}

// widen returns a state in complex128 for comparison against the exact
// paths: amps itself in double precision, a widened copy in single.
func widen[T statevec.Amp](amps []T) []complex128 {
	if same, ok := any(amps).([]complex128); ok {
		return same
	}
	out := kernels.NewAmps[complex128](len(amps))
	for i, a := range amps {
		out[i] = complex128(a)
	}
	return out
}

// Scheduled returns a backend that schedules the circuit with the paper's
// default options at l = n − globals local qubits and executes the fused
// plan on a single node.
func Scheduled(globals int) Backend {
	return PlanRow(fmt.Sprintf("schedule/fused-g%d", globals), globals, func(plan *schedule.Plan) ([]complex128, error) {
		v := statevec.New(plan.N)
		err := plan.Run(v)
		return v.Amps, err
	})
}

// F32Scheduled is F32 through the fused scheduler at l = n − globals —
// the paper's Sec. 5 outlook configuration (single precision + two-swap
// schedules).
func F32Scheduled(globals int) Backend {
	return PlanRow(fmt.Sprintf("f32vec/fused-g%d", globals), globals, func(plan *schedule.Plan) ([]complex128, error) {
		v := f32vec.New(plan.N)
		err := v.RunPlan(plan)
		return widen(v.Amps), err
	})
}

// OutOfCore returns a backend that schedules at l = n − globals and
// executes the plan through the file-backed out-of-core engine, paging the
// state through 2^globals file chunks, one fused streamed pass per stage.
// prefetch is the pipeline's read-ahead depth: > 0 overlaps chunk I/O with
// compute, 0 runs the same pass through a single buffer — enrolling both in
// the matrix cross-checks the pipeline with and without its concurrency
// against the in-memory reference.
func OutOfCore(globals, prefetch int) Backend {
	return PlanRow(fmt.Sprintf("oocvec/g%d-prefetch%d", globals, prefetch), globals, func(plan *schedule.Plan) ([]complex128, error) {
		v, err := oocvec.New(plan.N, plan.L, "")
		if err != nil {
			return nil, err
		}
		defer v.Close()
		v.SetPrefetch(prefetch)
		if err := v.Run(plan); err != nil {
			return nil, err
		}
		return v.Amplitudes()
	})
}

// Distributed returns a backend that schedules at l = n − log2(ranks) and
// executes across ranks simulated MPI ranks via dist.Run, gathering the
// full state.
func Distributed(ranks int) Backend {
	return distRow[complex128](fmt.Sprintf("dist/ranks%d", ranks), ranks, nil)
}

// DistributedF32 is Distributed in single precision: every shard and
// exchange at complex64 (dist.RunAt), the gathered state widened.
func DistributedF32(ranks int) Backend {
	return distRow[complex64](fmt.Sprintf("dist/ranks%d+f32", ranks), ranks, nil)
}

// DistributedFaulty is Distributed with MPI fault injection armed.
func DistributedFaulty(ranks int, fp *mpi.FaultPlan) Backend {
	return distRow[complex128](fmt.Sprintf("dist/ranks%d+faults", ranks), ranks, fp)
}

func distRow[T statevec.Amp](name string, ranks int, fp *mpi.FaultPlan) *planBackend {
	events := new(int64)
	return &planBackend{name: name, globals: bits.TrailingZeros(uint(ranks)), events: events,
		exec: func(plan *schedule.Plan) ([]complex128, error) {
			res, err := dist.RunAt[T](plan, dist.Options{
				Ranks: ranks, Init: dist.InitZero, GatherState: true, Faults: fp,
			})
			if err != nil {
				return nil, err
			}
			*events += res.FaultEvents
			return res.Amplitudes, nil
		}}
}

// PerOp returns the reference of the "blocked vs per-op" rows: the default
// plan at l = n − globals executed on the whole vector one op, one sweep of
// the state, at a time (schedule.Shard.Apply, which never forms a run). The
// plan-executing backends at the same globals build the same plan, so
// against this reference they must agree to the bit — which is only a
// statement about blocked runs on circuits whose shards exceed a cache
// block (BlockedQubits).
func PerOp(globals int) Backend {
	return PlanRow(fmt.Sprintf("schedule/per-op-g%d", globals), globals, runPerOp[complex128])
}

// F32PerOp is PerOp on a complex64 state, widened for comparison.
func F32PerOp(globals int) Backend {
	return PlanRow(fmt.Sprintf("f32vec/per-op-g%d", globals), globals, func(plan *schedule.Plan) ([]complex128, error) {
		narrow, err := runPerOp[complex64](plan)
		return widen(narrow), err
	})
}

func runPerOp[T complex64 | complex128](plan *schedule.Plan) ([]T, error) {
	sh := schedule.Shard[T]{Amps: kernels.NewAmps[T](1 << plan.N), L: plan.N}
	sh.Amps[0] = 1
	for i := range plan.Ops {
		op := &plan.Ops[i]
		if op.Kind != schedule.OpSwap {
			if err := sh.Apply(op); err != nil {
				return nil, err
			}
		}
		for j := range op.LocalPos {
			kernels.SwapBits(sh.Amps, op.LocalPos[j], op.GlobalPos[j])
		}
	}
	return sh.Amps, nil
}

// permuted-layout backend -----------------------------------------------------

type permutedBackend struct {
	name  string
	seed  int64
	every int
}

// Permuted returns a backend that exercises the bit-permutation kernel:
// every `every` gates it draws a seeded random relabeling of all n bit
// positions and applies it through statevec.PermuteBits (the in-place
// pair-swap passes), then keeps executing gates at their relocated positions.
// The final state is restored to logical order through
// PermuteBitsSwapChain — the pre-optimization transposition-chain
// implementation — so a divergence from the naive reference pins the
// in-place kernel against the chain on the same random permutations. The
// permutation before a swap gets the same treatment under MPI faults via
// the DistributedFaulty scenarios.
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

// per-gate baseline rows ------------------------------------------------------

// Baseline returns the De Raedt-style per-gate backend ([19]/[5]): a dist row
// whose planner is schedule.PerGate — fixed qubit↔location layout, a
// half-vector exchange with the partner rank and back per dense gate on a
// global qubit, CZ/CPhase specialization on. Circuits with dense multi-qubit
// gates on global qubits are reported ErrUnsupported (the scheme cannot
// execute them).
func Baseline(ranks int) Backend {
	return baselineRow(fmt.Sprintf("baseline/ranks%d", ranks), ranks, nil)
}

// BaselineFaulty is Baseline with MPI fault injection armed.
func BaselineFaulty(ranks int, fp *mpi.FaultPlan) Backend {
	return baselineRow(fmt.Sprintf("baseline/ranks%d+faults", ranks), ranks, fp)
}

func baselineRow(name string, ranks int, fp *mpi.FaultPlan) Backend {
	row := distRow[complex128](name, ranks, fp)
	row.planner = func(c *circuit.Circuit, l int) (*schedule.Plan, error) {
		plan, err := schedule.PerGate(c, l, func(g *circuit.Gate) bool { return g.K() >= 2 })
		if err != nil {
			return nil, ErrUnsupported // Run has checked l; what is left is the gate the scheme refuses
		}
		return plan, nil
	}
	return row
}

// FaultEvents is the number of perturbations the row's exec has injected so
// far; the harness sums them for reporting.
func (b *planBackend) FaultEvents() int64 {
	if b.events == nil {
		return 0
	}
	return *b.events
}

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
