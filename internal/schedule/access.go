package schedule

import (
	"fmt"
	"math/cmplx"
	"slices"
)

// The stage cut: the one walk that divides a plan into the stages every
// executor runs — Shard.Run on one vector, dist's ranks, oocvec's chunk
// pipeline — and the one place the plan's structure is checked. A stage is a
// sequence of ops on the 2^L amplitudes of a shard, closed by at most one
// global-to-local swap: after the swap amplitudes move between shards (ranks,
// file chunks), and between two stages a checkpoint may fall. The cut is also
// the static lookahead a paged executor schedules its I/O by (QP-Sim's
// "Lookahead" analysis applied to this repo's Plan): every stage is one
// streamed pass over the chunks of the file, and a closing swap exchanges
// each chunk's sub-blocks with the chunks that differ from it in GlobalBits.

// StageAccess is one stage of a plan.
type StageAccess struct {
	// Stage is the stage index (contiguous from 0).
	Stage int
	// Begin and End delimit the stage in Plan.Ops: Ops[Begin:End], the
	// closing swap included.
	Begin, End int
	// Swap is the index into Plan.Ops of the stage-closing OpSwap, End−1, or
	// −1 when the stage has none (the final stage, as Build emits plans).
	Swap int
	// GlobalBits are the index bits above L the closing swap exchanges with
	// the top local locations, GlobalPos − L: rank bits in dist, chunk-index
	// bits in oocvec. Empty when Swap is −1.
	GlobalBits []int
}

// Exchanges reports whether the stage ends in a global-to-local swap.
func (sa *StageAccess) Exchanges() bool { return sa.Swap >= 0 }

// AccessMap cuts the plan into its stages, afresh on every call (the result
// is the caller's). It returns an error for what no executor can run: an op
// of unknown kind, stage indices that do not run contiguously from 0, an op
// after the swap that closes its stage, and a swap that is not q local
// locations [L−q, L), in order, against q distinct global ones — or that
// carries a Perm: the permutation that brings the outgoing qubits to the top
// local locations is an OpLocalPerm of its own. Every other op passes
// checkLocal, so no plan it accepts reaches a kernel panic.
func (p *Plan) AccessMap() ([]StageAccess, error) {
	var stages []StageAccess
	for i := range p.Ops {
		op := &p.Ops[i]
		if op.Kind < OpCluster || op.Kind > OpSwap {
			return nil, fmt.Errorf("schedule: op %d: unknown kind %d", i, int(op.Kind))
		}
		if op.Stage == len(stages) {
			stages = append(stages, StageAccess{Stage: op.Stage, Begin: i, Swap: -1})
		} else if len(stages) == 0 || op.Stage != len(stages)-1 {
			return nil, fmt.Errorf("schedule: op %d: stage %d follows stage %d (stages run contiguously from 0)", i, op.Stage, len(stages)-1)
		}
		sa := &stages[len(stages)-1]
		sa.End = i + 1
		switch {
		case sa.Swap >= 0 && op.Kind == OpSwap:
			return nil, fmt.Errorf("schedule: stage %d closes with two swaps (ops %d and %d)", op.Stage, sa.Swap, i)
		case sa.Swap >= 0:
			return nil, fmt.Errorf("schedule: stage %d has op %d after its closing swap", op.Stage, i)
		case op.Kind == OpSwap:
			bits, err := p.globalBits(op)
			if err != nil {
				return nil, fmt.Errorf("schedule: op %d: %w", i, err)
			}
			sa.Swap, sa.GlobalBits = i, bits
		default:
			if err := p.checkLocal(op); err != nil {
				return nil, fmt.Errorf("schedule: op %d: %w", i, err)
			}
		}
	}
	return stages, nil
}

// checkLocal checks what the kernels of a cluster, a diagonal or a local
// permutation take on trust: positions strictly ascending and in range (a
// cluster's below L, a diagonal's below N), a matrix or diagonal of their
// size with finite entries, and a permutation of the L local locations. A
// finite entry times a zero amplitude is a zero, which is what lets an
// executor leave the zeros beyond a shard's populated prefix alone.
func (p *Plan) checkLocal(op *Op) error {
	k := len(op.Positions)
	for j, pos := range op.Positions {
		if j > 0 && op.Positions[j-1] >= pos {
			return fmt.Errorf("positions %v are not strictly ascending", op.Positions)
		}
		if pos < 0 || op.Kind == OpCluster && pos >= p.L || pos >= p.N {
			return fmt.Errorf("position %d out of range for a %v", pos, op.Kind)
		}
	}
	switch {
	case op.Kind == OpCluster && len(op.Matrix.Data) != 1<<(2*k):
		return fmt.Errorf("%d matrix entries for %d positions", len(op.Matrix.Data), k)
	case op.Kind == OpDiagonal && len(op.Diag) != 1<<k:
		return fmt.Errorf("%d diagonal entries for %d positions", len(op.Diag), k)
	case op.Kind == OpLocalPerm && !isPermutation(op.Perm, p.L):
		return fmt.Errorf("perm %v is not a permutation of the %d local locations", op.Perm, p.L)
	}
	for _, entries := range [][]complex128{op.Matrix.Data, op.Diag} {
		for _, x := range entries {
			if cmplx.IsNaN(x) || cmplx.IsInf(x) {
				return fmt.Errorf("%v entry %v is not finite", op.Kind, x)
			}
		}
	}
	return nil
}

// globalBits checks the shape of a swap and returns its GlobalBits.
func (p *Plan) globalBits(op *Op) ([]int, error) {
	q := len(op.LocalPos)
	if q == 0 || len(op.GlobalPos) != q {
		return nil, fmt.Errorf("unbalanced swap of %v with %v", op.LocalPos, op.GlobalPos)
	}
	if op.Perm != nil {
		return nil, fmt.Errorf("swap carries a permutation; it is an OpLocalPerm of its own")
	}
	bits := make([]int, q)
	for j, lo := range op.LocalPos {
		hi := op.GlobalPos[j]
		if lo < 0 || lo != p.L-q+j || hi < p.L || hi >= p.N || slices.Contains(op.GlobalPos[:j], hi) {
			return nil, fmt.Errorf("swap of %v with %v is not the top %d local locations against distinct global ones", op.LocalPos, op.GlobalPos, q)
		}
		bits[j] = hi - p.L
	}
	return bits, nil
}
