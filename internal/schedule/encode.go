package schedule

import (
	"encoding/gob"
	"fmt"
	"io"
	"slices"
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
	// ClusterSizes is Stats.ClusterSizes as (size, count) pairs in size
	// order: gob writes a map in random order, so since version 2 Stats goes
	// without it and a plan saves to the same bytes every time. Version 1
	// carries the map in Stats.
	ClusterSizes [][2]int
}

const planWireVersion = 2

// WritePlan serializes the plan to w.
func WritePlan(w io.Writer, p *Plan) error {
	stats := p.Stats
	stats.ClusterSizes = nil
	var sizes [][2]int
	for k, c := range p.Stats.ClusterSizes {
		sizes = append(sizes, [2]int{k, c})
	}
	slices.SortFunc(sizes, func(a, b [2]int) int { return a[0] - b[0] })
	return gob.NewEncoder(w).Encode(planWire{
		Version:      planWireVersion,
		N:            p.N,
		L:            p.L,
		Ops:          p.Ops,
		InitialPos:   p.InitialPos,
		FinalPos:     p.FinalPos,
		Stats:        stats,
		ClusterSizes: sizes,
	})
}

// ReadPlan deserializes a plan written by WritePlan.
func ReadPlan(r io.Reader) (*Plan, error) {
	var w planWire
	if err := gob.NewDecoder(r).Decode(&w); err != nil {
		return nil, fmt.Errorf("schedule: decoding plan: %w", err)
	}
	if w.Version != 1 && w.Version != planWireVersion {
		return nil, fmt.Errorf("schedule: unsupported plan version %d", w.Version)
	}
	if len(w.ClusterSizes) > 0 {
		w.Stats.ClusterSizes = map[int]int{}
		for _, kc := range w.ClusterSizes {
			w.Stats.ClusterSizes[kc[0]] = kc[1]
		}
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
	if !isPermutation(p.InitialPos, p.N) || !isPermutation(p.FinalPos, p.N) {
		return fmt.Errorf("schedule: plan position map is not a permutation of its %d qubits", p.N)
	}
	// Every op: the executors' cut, which checks what the kernels trust.
	_, err := p.AccessMap()
	return err
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
