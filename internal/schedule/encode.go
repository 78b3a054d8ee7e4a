package schedule

import (
	"encoding/gob"
	"fmt"
	"io"
)

// Plan serialization. The scheduler's pre-computation "terminates in 1–3
// seconds on a laptop ... and can be reused for all instances of the same
// size" (Table 1 caption) — serialized plans are how that reuse works
// across processes: schedule once with qsched, execute many times with
// qsim.

// planWire is the gob wire form of a Plan.
type planWire struct {
	Version    int
	N, L       int
	Ops        []Op
	InitialPos []int
	FinalPos   []int
	Stats      Stats
}

const planWireVersion = 1

// WritePlan serializes the plan to w.
func WritePlan(w io.Writer, p *Plan) error {
	enc := gob.NewEncoder(w)
	return enc.Encode(planWire{
		Version:    planWireVersion,
		N:          p.N,
		L:          p.L,
		Ops:        p.Ops,
		InitialPos: p.InitialPos,
		FinalPos:   p.FinalPos,
		Stats:      p.Stats,
	})
}

// ReadPlan deserializes a plan written by WritePlan.
func ReadPlan(r io.Reader) (*Plan, error) {
	var w planWire
	if err := gob.NewDecoder(r).Decode(&w); err != nil {
		return nil, fmt.Errorf("schedule: decoding plan: %w", err)
	}
	if w.Version != planWireVersion {
		return nil, fmt.Errorf("schedule: unsupported plan version %d", w.Version)
	}
	p := &Plan{
		N:          w.N,
		L:          w.L,
		Ops:        w.Ops,
		InitialPos: w.InitialPos,
		FinalPos:   w.FinalPos,
		Stats:      w.Stats,
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// validate sanity-checks a deserialized plan.
func (p *Plan) validate() error {
	if p.N < 1 || p.L < 1 || p.L > p.N {
		return fmt.Errorf("schedule: invalid plan dimensions n=%d l=%d", p.N, p.L)
	}
	if len(p.InitialPos) != p.N || len(p.FinalPos) != p.N {
		return fmt.Errorf("schedule: plan position maps have wrong length")
	}
	for _, pos := range [][]int{p.InitialPos, p.FinalPos} {
		seen := make([]bool, p.N)
		for _, x := range pos {
			if x < 0 || x >= p.N || seen[x] {
				return fmt.Errorf("schedule: plan position map is not a permutation")
			}
			seen[x] = true
		}
	}
	stage := 0
	for i := range p.Ops {
		op := &p.Ops[i]
		// Executors cut the op list at stage boundaries and index per-stage
		// tables by Stage: contiguous from 0, never decreasing.
		if op.Stage != stage && op.Stage != stage+1 {
			return fmt.Errorf("schedule: op %d: stage %d follows stage %d", i, op.Stage, stage)
		}
		stage = op.Stage
		// The kernels take positions strictly ascending and panic otherwise;
		// a plan file is outside input, so it is turned away here.
		for j := 1; j < len(op.Positions); j++ {
			if op.Positions[j-1] >= op.Positions[j] {
				return fmt.Errorf("schedule: op %d: positions %v are not strictly ascending", i, op.Positions)
			}
		}
		switch op.Kind {
		case OpCluster:
			if len(op.Matrix.Data) != (1<<len(op.Positions))*(1<<len(op.Positions)) {
				return fmt.Errorf("schedule: op %d: matrix size mismatch", i)
			}
			for _, pos := range op.Positions {
				if pos < 0 || pos >= p.L {
					return fmt.Errorf("schedule: op %d: cluster position %d not local", i, pos)
				}
			}
		case OpDiagonal:
			if len(op.Diag) != 1<<len(op.Positions) {
				return fmt.Errorf("schedule: op %d: diagonal size mismatch", i)
			}
			for _, pos := range op.Positions {
				if pos < 0 || pos >= p.N {
					return fmt.Errorf("schedule: op %d: position %d out of range", i, pos)
				}
			}
		case OpLocalPerm:
			if !isPermutation(op.Perm, p.L) {
				return fmt.Errorf("schedule: op %d: perm %v is not a permutation of the %d local locations", i, op.Perm, p.L)
			}
		case OpSwap:
			if len(op.LocalPos) != len(op.GlobalPos) || len(op.LocalPos) == 0 {
				return fmt.Errorf("schedule: op %d: unbalanced swap", i)
			}
			if op.Perm != nil && !isPermutation(op.Perm, p.L) {
				return fmt.Errorf("schedule: op %d: fused perm %v is not a permutation of the %d local locations", i, op.Perm, p.L)
			}
			seen := make([]bool, p.N)
			for j, lo := range op.LocalPos {
				hi := op.GlobalPos[j]
				if lo < 0 || lo >= p.L || hi < p.L || hi >= p.N || seen[lo] || seen[hi] {
					return fmt.Errorf("schedule: op %d: swap of %v with %v is not local ↔ global, each location once", i, op.LocalPos, op.GlobalPos)
				}
				seen[lo], seen[hi] = true, true
			}
		default:
			return fmt.Errorf("schedule: op %d: unknown kind %d", i, int(op.Kind))
		}
	}
	return nil
}

// isPermutation reports whether perm maps 0…n−1 onto itself.
func isPermutation(perm []int, n int) bool {
	if len(perm) != n {
		return false
	}
	seen := make([]bool, n)
	for _, x := range perm {
		if x < 0 || x >= n || seen[x] {
			return false
		}
		seen[x] = true
	}
	return true
}
