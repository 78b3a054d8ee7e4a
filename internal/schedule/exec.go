package schedule

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
	"unsafe"

	"qusim/internal/ckpt"
	"qusim/internal/kernels"
	"qusim/internal/par"
)

// The shard applier: the one place a plan op becomes kernel calls. The
// paper runs a single schedule — fused clusters, specialized diagonals,
// local permutations, global-to-local swaps (Sec. 3.4–3.6) — and every back
// end here executes it on the same unit, 2^L contiguous amplitudes: the
// whole vector (Plan.Run, f32vec.RunPlan), a rank's share (dist), a file
// chunk (oocvec). All of them run the same stages (Shard.Stages) in the same
// loop (Walk); what differs between them is only which units they hold and
// how the exchange of an OpSwap moves data between them (Executor).
//
// The paper's two locality devices apply once more inside a shard, with a
// cache-sized block in the role of the rank: a run of consecutive ops that
// need no amplitude from outside a block — diagonals, which move no data
// wherever their positions lie (Sec. 3.5), and clusters on positions below
// the block width, the block's "local qubits" (Sec. 3.4) — is executed block
// by block, every op of the run on one block before the next block is
// touched, so the shard streams from memory once per run instead of once per
// op (DESIGN §12.2).

// amp is the amplitude element type of a shard, in either precision.
type amp interface{ complex64 | complex128 }

// blockBytes is the size of the block a run of ops is applied to at a time:
// half of this host class's per-core L2, flat across 2^13–2^17 amplitudes on
// the diagonal runs of a QFT and best at 2^16–2^17 on the supremacy plans,
// whose first clusters reach position 15. A constant, not an option: every
// size in that range is within noise of every other.
const blockBytes = 1 << 20

// blockBits is log2 of the amplitudes in a block: 16 for complex128, 17 for
// complex64.
func blockBits[T amp]() int {
	var a T
	return bits.TrailingZeros(blockBytes / uint(unsafe.Sizeof(a)))
}

// Shard is 2^L amplitudes of a state together with what an op needs to act
// on them. Index supplies the index bits at locations ≥ L: 0 for a whole
// vector, the rank in dist, the chunk number in oocvec.
type Shard[T amp] struct {
	Amps  []T
	L     int
	Index int
	// Observe, when not nil, is told about every pass Exec makes over the
	// shard: the ops it executed — one, or the several of a blocked run —
	// when it began, and how long each op took; the times add up to the
	// pass. Inside a run an op's time is its share of the run's, by a clock
	// pair around every (op, block).
	Observe func(ops []Op, start time.Time, took []time.Duration)
}

// Program is a sequence of ops prepared for the shards of one geometry
// (element type, L): matrices converted to the element type and, like the
// diagonals, compiled into the form their kernel reads (kernels.Dense,
// kernels.Diagonal), runs found. It holds nothing of
// a shard's amplitudes or index, so one Program serves every chunk of a
// paged state and every rank of a distributed one, concurrently.
type Program[T amp] struct {
	ops   []Op
	steps []step[T]
}

// step is one op of a Program.
type step[T amp] struct {
	dense kernels.Dense[T]     // OpCluster
	diag  *kernels.Diagonal[T] // OpDiagonal
	inRun bool                 // needs nothing from outside a block
}

// Compile prepares ops — consecutive ops of one stage, up to its swap — for
// s and every shard of its geometry. A run is a maximal sequence of
// diagonals (on any positions: the bits at or above the block select the
// sub-diagonal, just as Index does for the bits at or above L) and clusters
// whose positions all lie below the block width; whatever reaches further —
// a wider cluster, a permutation — is a pass of its own and ends the run. A
// shard no larger than a block has no runs. An OpSwap is no shard's op: its
// exchange moves amplitudes between shards, and the executor does it.
func (s *Shard[T]) Compile(ops []Op) (*Program[T], error) {
	block := min(s.L, blockBits[T]())
	blocked := block < s.L
	p := &Program[T]{ops: ops, steps: make([]step[T], len(ops))}
	for i := range ops {
		op, st := &ops[i], &p.steps[i]
		switch op.Kind {
		case OpCluster:
			st.inRun = blocked && (len(op.Positions) == 0 || op.Positions[len(op.Positions)-1] < block)
			n := 1 << s.L
			if st.inRun {
				n = 1 << block
			}
			st.dense = kernels.PrepareDense(kernels.Convert[T](op.Matrix.Data), op.Positions, n)
		case OpDiagonal:
			st.diag = kernels.PrepareDiagonal(kernels.Convert[T](op.Diag), op.Positions, 1<<block)
			st.inRun = blocked
		case OpLocalPerm:
		case OpSwap:
			return nil, fmt.Errorf("schedule: op %d is a swap, which the executor exchanges", i)
		default:
			return nil, fmt.Errorf("schedule: unknown op kind %v", op.Kind)
		}
	}
	return p, nil
}

// Exec executes p on the shard: a run of two or more ops block by block,
// anything else as one pass per op. A pass covers only the shard's
// populated prefix, the first 2^need amplitudes, beyond which every
// amplitude is zero and would stay zero (passes).
func (s *Shard[T]) Exec(p *Program[T]) {
	p.passes(s.populated(), s.L, func(i, j, need int) {
		var start time.Time
		var spent []atomic.Int64
		if s.Observe != nil {
			start, spent = time.Now(), make([]atomic.Int64, j-i)
		}
		if j == i+1 {
			s.one(&p.ops[i], &p.steps[i], s.Amps[:1<<need])
		} else {
			s.blocks(p.steps[i:j], spent, s.Amps[:1<<need])
		}
		if s.Observe != nil {
			s.Observe(p.ops[i:j], start, shares(time.Since(start), spent))
		}
	})
}

// populated returns log2 of the shard's populated prefix: the fewest
// leading amplitudes, a power of two and at least a block, that hold every
// nonzero byte of it (kernels.Populated). A shard no larger than a block is
// not scanned and is populated throughout.
func (s *Shard[T]) populated() int {
	bb := blockBits[T]()
	if s.L <= bb {
		return s.L
	}
	end := max(kernels.Populated(s.Amps), 1) // a shard of zeros: one block
	return max(bb, bits.Len(uint(end-1)))
}

// passes calls f with the ops [i, j) of every pass of p, in order, and the
// prefix 2^need of a 2^l-amplitude shard the pass covers, when the shard is
// populated below 2^need before the first: a cluster spreads the nonzero
// amplitudes up to its highest position, a diagonal only multiplies them, a
// permutation may move them anywhere in the shard.
func (p *Program[T]) passes(need, l int, f func(i, j, need int)) {
	for i := 0; i < len(p.steps); {
		j := i
		for j < len(p.steps) && p.steps[j].inRun {
			j++
		}
		if j < i+2 {
			j = i + 1
			switch op := &p.ops[i]; {
			case op.Kind == OpCluster && len(op.Positions) > 0:
				need = max(need, op.Positions[len(op.Positions)-1]+1)
			case op.Kind == OpLocalPerm:
				need = l
			}
		}
		f(i, j, need)
		i = j
	}
}

// shares splits the wall time of a pass between its ops in proportion to
// the clock time each accumulated over all workers (evenly when none did: a
// pass of one op keeps no clock of its own).
func shares(wall time.Duration, spent []atomic.Int64) []time.Duration {
	var sum int64
	for i := range spent {
		sum += spent[i].Load()
	}
	took := make([]time.Duration, len(spent))
	for i := range took {
		if sum == 0 {
			took[i] = wall / time.Duration(len(took))
		} else {
			took[i] = time.Duration(float64(wall) * float64(spent[i].Load()) / float64(sum))
		}
	}
	return took
}

// blocks executes a run on amps, a prefix of the shard, block by block,
// every step on one block before the next block is touched, with the blocks
// as par's iteration space. The kernels' block entry points do not reach
// par, so nothing nests. spent, when not nil, collects per step the time of
// its (op, block) pairs.
//
//qusim:hot
func (s *Shard[T]) blocks(steps []step[T], spent []atomic.Int64, amps []T) {
	bb, base := blockBits[T](), s.Index<<s.L
	par.For(len(amps)>>bb, 1, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			blk := amps[b<<bb : (b+1)<<bb : (b+1)<<bb]
			var t0 time.Time
			if spent != nil {
				t0 = time.Now()
			}
			for n := range steps {
				if st := &steps[n]; st.diag != nil {
					st.diag.Block(blk, base+b<<bb)
				} else {
					st.dense.Block(blk)
				}
				if spent != nil {
					t1 := time.Now()
					spent[n].Add(int64(t1.Sub(t0)))
					t0 = t1
				}
			}
		}
	})
}

// one executes a single op as a pass of its own over amps, a prefix of the
// shard.
func (s *Shard[T]) one(op *Op, st *step[T], amps []T) {
	switch op.Kind {
	case OpCluster:
		st.dense.Sweep(amps)
	case OpDiagonal:
		st.diag.Sweep(amps, s.Index<<s.L)
	case OpLocalPerm:
		s.permute(amps, op.Perm)
	}
}

// Apply executes one op on the shard: a cluster, a diagonal — the index bits
// at locations ≥ L select the sub-diagonal, which is one scalar when no
// position is local (Sec. 3.5: no communication) — or a local permutation.
// An OpSwap is the caller's to exchange.
func (s *Shard[T]) Apply(op *Op) error {
	p, err := s.Compile([]Op{*op})
	if err != nil {
		return err
	}
	s.Exec(p)
	return nil
}

// Stage is one stage of a plan prepared for the shards of one geometry: its
// cut, and the program of its ops up to the closing swap, whose exchange is
// the executor's.
type Stage[T amp] struct {
	StageAccess
	Prog *Program[T]
}

// Stages cuts p (AccessMap) and compiles every stage from startStage on for
// s's geometry; the earlier ones are already in a state restored at that
// boundary. A Program holds nothing of a shard's amplitudes or index, so
// every rank and every chunk executes the same one.
func (s *Shard[T]) Stages(p *Plan, startStage int) ([]Stage[T], error) {
	cut, err := p.AccessMap()
	if err != nil {
		return nil, err
	}
	var stages []Stage[T]
	for _, sa := range cut {
		if sa.Stage < startStage {
			continue
		}
		end := sa.End
		if sa.Exchanges() {
			end = sa.Swap
		}
		prog, err := s.Compile(p.Ops[sa.Begin:end])
		if err != nil {
			return nil, err
		}
		stages = append(stages, Stage[T]{sa, prog})
	}
	return stages, nil
}

// Executor is a back end inside the one stage walk (Walk): what holds the
// units of a state — the whole vector, a rank's shard, the chunks of a file
// — and how a swap moves amplitudes between them.
type Executor[T amp] interface {
	// Stage runs the program of st over every unit the executor holds.
	// When snap is not nil it also hands snap every unit, in plan-location
	// order, as the boundary before st left it, and commits it.
	Stage(st *Stage[T], snap *ckpt.Snapshot) error
	// Exchange does the swap that closes st.
	Exchange(st *Stage[T])
}

// Walk executes stages — p's from start on, as Shard.Stages compiled them —
// through ex, the one loop over a plan's stages every back end runs: each
// stage's program, with the snapshot of its boundary when ck's policy names
// it (ckpt.Policy.Due), then its closing exchange.
func Walk[T amp](p *Plan, stages []Stage[T], start int, ck *ckpt.Writer, ex Executor[T]) error {
	for i := range stages {
		st := &stages[i]
		if err := ex.Stage(st, ck.At(st.Stage, start, p.Stages())); err != nil {
			return err
		}
		if st.Exchanges() {
			ex.Exchange(st)
		}
	}
	return nil
}

// Run executes the stages of p with index ≥ startStage on a shard that is the
// whole state (L = p.N, Index 0) — the single-node execution behind Plan.Run
// and f32vec.RunPlan.
func (s *Shard[T]) Run(p *Plan, startStage int) error {
	stages, err := s.Stages(p, startStage)
	if err != nil {
		return err
	}
	return Walk(p, stages, startStage, nil, vector[T]{s, p.L})
}

// vector is the executor of a shard that is the whole state. With every
// location local, the exchange of a swap is SwapWhole.
type vector[T amp] struct {
	*Shard[T]
	l int
}

func (v vector[T]) Stage(st *Stage[T], _ *ckpt.Snapshot) error {
	v.Exec(st.Prog)
	return nil
}

func (v vector[T]) Exchange(st *Stage[T]) { v.SwapWhole(st, v.l) }

// SwapWhole does the exchange that closes st on a shard holding the whole
// state of a plan of l local qubits: one in-place SwapBits sweep per
// exchanged pair, local location l−q+j against l+GlobalBits[j].
func (s *Shard[T]) SwapWhole(st *Stage[T], l int) {
	for j, g := range st.GlobalBits {
		kernels.SwapBits(s.Amps, l-len(st.GlobalBits)+j, l+g)
	}
}

// permute relabels the local bit locations; locations above len(perm) (the
// former global ones of a whole-vector shard) stay where they are.
func (s *Shard[T]) permute(amps []T, perm []int) {
	if len(perm) < s.L {
		full := make([]int, s.L)
		for q := copy(full, perm); q < s.L; q++ {
			full[q] = q
		}
		perm = full
	}
	kernels.PermuteInPlace(amps, kernels.CompileBitPermutation(perm))
}
