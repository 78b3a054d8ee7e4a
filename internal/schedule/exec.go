package schedule

import (
	"fmt"

	"qusim/internal/kernels"
)

// The shard applier: the one place a plan op becomes kernel calls. The
// paper runs a single schedule — fused clusters, specialized diagonals,
// local permutations, global-to-local swaps (Sec. 3.4–3.6) — and every back
// end here executes it on the same unit, 2^L contiguous amplitudes: the
// whole vector (Plan.Run, f32vec.RunPlan), a rank's share (dist), a file
// chunk (oocvec). What differs between them is only how the exchange half
// of an OpSwap moves data between shards, and that stays with each back end.

// amp is the amplitude element type of a shard, in either precision.
type amp interface{ complex64 | complex128 }

// Shard is 2^L amplitudes of a state together with what an op needs to act
// on them. Index supplies the index bits at locations ≥ L: 0 for a whole
// vector, the rank in dist, the chunk number in oocvec.
type Shard[T amp] struct {
	Amps []T
	// Scratch is a second buffer of len(Amps) for the ops whose result lands
	// in a new vector (a multi-cycle permutation, the kernels.Naive variant).
	// Apply allocates it when it is nil and first needed, and trades it with
	// Amps whenever a result lands in it.
	Scratch []T
	L       int
	Index   int
	Variant kernels.Variant
}

// Apply executes the shard-local part of op: a cluster, a diagonal — the
// index bits at locations ≥ L select the sub-diagonal, which is one scalar
// when no position is local (Sec. 3.5: no communication) — a local
// permutation, or the permutation fused into an OpSwap. The exchange half of
// an OpSwap is the caller's.
func (s *Shard[T]) Apply(op *Op) error {
	switch op.Kind {
	case OpCluster:
		s.dense(op.Matrix.Data, op.Positions)
	case OpDiagonal:
		// Positions are sorted ascending, so the local ones form a prefix and
		// the rest pick, through Index, a contiguous block of Diag.
		nl, sel := 0, 0
		for j, q := range op.Positions {
			if q < s.L {
				nl++
			} else {
				sel |= (s.Index >> (q - s.L) & 1) << (j - nl)
			}
		}
		s.diagonal(op.Diag[sel<<nl:(sel+1)<<nl], op.Positions[:nl])
	case OpLocalPerm:
		s.permute(op.Perm)
	case OpSwap:
		if op.Perm != nil {
			s.permute(op.Perm)
		}
	default:
		return fmt.Errorf("schedule: unknown op kind %v", op.Kind)
	}
	return nil
}

// Run executes the ops of p with Stage ≥ startStage on a shard that is the
// whole state (L = p.N, Index 0) — the single-node execution behind Plan.Run
// and f32vec.RunPlan. With every location local, the exchange half of a swap
// is one in-place SwapBits sweep per exchanged pair.
func (s *Shard[T]) Run(p *Plan, startStage int) error {
	for i := range p.Ops {
		op := &p.Ops[i]
		if op.Stage < startStage {
			continue
		}
		if err := s.Apply(op); err != nil {
			return err
		}
		if op.Kind == OpSwap {
			for j := range op.LocalPos {
				kernels.SwapBits(s.Amps, op.LocalPos[j], op.GlobalPos[j])
			}
		}
	}
	return nil
}

// permute relabels the local bit locations; locations above len(perm) (the
// former global ones of a whole-vector shard) stay where they are.
func (s *Shard[T]) permute(perm []int) {
	if len(perm) < s.L {
		full := make([]int, s.L)
		for q := copy(full, perm); q < s.L; q++ {
			full[q] = q
		}
		perm = full
	}
	s.Amps, s.Scratch = kernels.Permute(s.Amps, s.Scratch, kernels.CompileBitPermutation(perm))
}

// dense and diagonal are where the element type picks the kernel suite:
// plans carry complex128 matrices, converted per op for a complex64 shard.

func (s *Shard[T]) dense(m []complex128, qs []int) {
	if s.Variant == kernels.Naive && s.Scratch == nil {
		s.Scratch = make([]T, len(s.Amps))
	}
	var out []T
	switch a := any(s.Amps).(type) {
	case []complex128:
		out = any(kernels.Apply(s.Variant, a, m, qs, any(s.Scratch).([]complex128))).([]T)
	case []complex64:
		out = any(kernels.ApplyF32(s.Variant, a, kernels.ToComplex64(m), qs, any(s.Scratch).([]complex64))).([]T)
	}
	if &out[0] != &s.Amps[0] {
		s.Amps, s.Scratch = out, s.Amps
	}
}

func (s *Shard[T]) diagonal(d []complex128, qs []int) {
	switch a := any(s.Amps).(type) {
	case []complex128:
		kernels.ApplyDiagonal(a, d, qs)
	case []complex64:
		kernels.ApplyDiagonalF32(a, kernels.ToComplex64(d), qs)
	}
}
