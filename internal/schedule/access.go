package schedule

import "fmt"

// The chunk access map: the static-lookahead analysis a paged (out-of-core)
// executor needs to schedule I/O around the plan instead of reacting to it.
// A file-backed state is divided into 2^(N−L) chunks of 2^L amplitudes;
// chunk-index bits play the role of the global qubits. The scheduler already
// knows, per swap-delimited stage, exactly which bit locations every op
// touches — this file turns that knowledge into a per-stage description of
// chunk reads, writes and exchanges that a prefetch/writeback pipeline can
// execute against (QP-Sim's "Lookahead" analysis, applied to this repo's
// Plan).
//
// With up to 2^39 chunks the per-stage chunk sets are represented
// intensionally, not as materialized lists: every op kind the executor
// streams (clusters, diagonals — including purely global ones, which reduce
// to a per-chunk scale — and local permutations) touches *every* chunk in
// one sequential read+write pass, and a stage-closing swap exchanges each
// chunk's sub-blocks with the 2^q−1 partner chunks differing in the swapped
// chunk-index bits. The access map records which of those patterns a stage
// exhibits and which ops ride the streamed pass, so the executor can fuse
// all of a stage's local ops into a single pass and overlap its I/O.

// StageAccess describes how one swap-delimited stage touches the chunks of
// a paged state file.
type StageAccess struct {
	// Stage is the stage index (contiguous from 0).
	Stage int
	// Ops are the indices into Plan.Ops of this stage, in execution order.
	Ops []int
	// StreamOps is the subset of Ops a paged executor applies in the
	// stage's single streamed read+write pass over every chunk: clusters,
	// diagonals and local permutations, in execution order. A stage-closing
	// swap's fused pre-permutation (Op.Perm on an OpSwap) also belongs to
	// the streamed pass but is reached through Swap, not listed here.
	StreamOps []int
	// Swap is the index into Plan.Ops of the stage-closing OpSwap, or −1
	// for the final stage (no exchange).
	Swap int
	// SwapChunkBits are the chunk-index bits (GlobalPos − L) the closing
	// swap exchanges; empty when Swap is −1. Chunk c trades sub-blocks with
	// the partner chunks that differ from c exactly in subsets of these
	// bits.
	SwapChunkBits []int
	// Reads/Writes report whether the stage's streamed pass reads and
	// writes every chunk (it does whenever the stage has any streamable
	// work). A swap additionally re-reads every chunk and scatters
	// sub-block writes across every chunk of the target file; that pattern
	// is implied by Swap ≥ 0.
	Reads, Writes bool
	// LocalQubitMask has bit b set when some op of the stage acts on local
	// bit location b (< L) — the stage's qubit set, for trace annotations
	// and locality diagnostics.
	LocalQubitMask uint64
}

// Exchanges reports whether the stage ends in a global-to-local swap.
func (sa *StageAccess) Exchanges() bool { return sa.Swap >= 0 }

// Partners appends to dst the chunks that exchange sub-blocks with chunk c
// in this stage's closing swap (c itself excluded) and returns the result.
// It returns dst unchanged for a swapless stage.
func (sa *StageAccess) Partners(c int, dst []int) []int {
	q := len(sa.SwapChunkBits)
	for m := 1; m < 1<<q; m++ {
		p := c
		for t, b := range sa.SwapChunkBits {
			if m&(1<<t) != 0 {
				p ^= 1 << b
			}
		}
		dst = append(dst, p)
	}
	return dst
}

// Touches reports whether the stage touches chunk c at all. Every non-empty
// stage touches every chunk (streamed ops pass over the whole file; a swap
// exchanges within full chunk groups), so this is false only for a stage
// with no ops — which the builder never emits — but the property tests
// assert the equivalence against the executor rather than assume it.
func (sa *StageAccess) Touches(c int) bool {
	return sa.Reads || sa.Writes || sa.Exchanges()
}

// ChunkAccess is the per-stage chunk access map of one plan (shape): plans
// with equal StructureFingerprint have equal maps.
type ChunkAccess struct {
	N, L   int
	Stages []StageAccess
}

// Chunks returns the number of file chunks the map describes, 2^(N−L).
func (a *ChunkAccess) Chunks() int { return 1 << (a.N - a.L) }

// buildAccess derives the access map by a single walk over the op stream.
func buildAccess(p *Plan) (*ChunkAccess, error) {
	a := &ChunkAccess{N: p.N, L: p.L, Stages: make([]StageAccess, 0, p.Stages())}
	for i := range p.Ops {
		op := &p.Ops[i]
		for len(a.Stages) <= op.Stage {
			a.Stages = append(a.Stages, StageAccess{Stage: len(a.Stages), Swap: -1})
		}
		sa := &a.Stages[op.Stage]
		sa.Ops = append(sa.Ops, i)
		switch op.Kind {
		case OpCluster, OpDiagonal:
			sa.StreamOps = append(sa.StreamOps, i)
			sa.Reads, sa.Writes = true, true
			for _, q := range op.Positions {
				if q < p.L {
					sa.LocalQubitMask |= 1 << q
				}
			}
		case OpLocalPerm:
			sa.StreamOps = append(sa.StreamOps, i)
			sa.Reads, sa.Writes = true, true
			for q, dst := range op.Perm {
				if q != dst {
					sa.LocalQubitMask |= 1 << q
				}
			}
		case OpSwap:
			if sa.Swap >= 0 {
				return nil, fmt.Errorf("schedule: stage %d closes with two swaps (ops %d and %d)", op.Stage, sa.Swap, i)
			}
			sa.Swap = i
			for _, g := range op.GlobalPos {
				sa.SwapChunkBits = append(sa.SwapChunkBits, g-p.L)
			}
			for _, q := range op.LocalPos {
				sa.LocalQubitMask |= 1 << q
			}
			if op.Perm != nil {
				// The fused pre-permutation streams with the stage pass.
				sa.Reads, sa.Writes = true, true
			}
		default:
			return nil, fmt.Errorf("schedule: unknown op kind %v in access analysis", op.Kind)
		}
		if sa.Swap >= 0 && i != sa.Swap {
			return nil, fmt.Errorf("schedule: stage %d has op %d after its closing swap", op.Stage, i)
		}
	}
	return a, nil
}

// AccessMap returns the plan's per-stage chunk access map: one append-only
// walk of the op stream, built afresh on every call and owned by the caller.
func (p *Plan) AccessMap() (*ChunkAccess, error) { return buildAccess(p) }
