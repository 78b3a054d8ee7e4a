package schedule

import (
	"fmt"
	"slices"

	"qusim/internal/circuit"
)

// PerGate is the scheduler of [19] as used by the state of the art [5] that
// Table 2 and Fig. 5 compare against, written as a plan: qubit q stays at bit
// location q, nothing is fused, and every gate is one op. A gate for which
// specialized reports true (only diagonal gates are asked) runs on global
// locations without communication (Sec. 3.5). Any other single-qubit gate on
// global location p is bracketed by the q = 1 case of the global-to-local
// swap, p ↔ l−1 and the same swap back — each rank of a pair holds exactly
// the half vectors [19] exchanges — so it costs two all-to-alls, the scheme's
// one communication step. An unspecialized diagonal on two or more qubits
// moves no data either and is only charged a step; a dense gate on two or
// more qubits of which one is global is beyond the scheme.
// Stats.BaselineGlobalGates is the plan's own count of communication steps.
func PerGate(c *circuit.Circuit, l int, specialized func(*circuit.Gate) bool) (*Plan, error) {
	if err := checkQubits(c.N); err != nil {
		return nil, err
	}
	if l < 1 || l > c.N {
		return nil, fmt.Errorf("schedule: %d local qubits for a %d-qubit circuit", l, c.N)
	}
	identity := make([]int, c.N)
	for q := range identity {
		identity[q] = q
	}
	p := &Plan{N: c.N, L: l, InitialPos: identity, FinalPos: slices.Clone(identity)}
	st := Stats{Qubits: c.N, LocalQubits: l, Gates: len(c.Gates), ClusterSizes: map[int]int{}}
	stage := 0
	emit := func(op Op) {
		op.Stage = stage
		p.Ops = append(p.Ops, op)
		switch {
		case op.Kind == OpSwap:
			st.Swaps++
			stage++
		case len(op.Positions) > 0 && op.Positions[len(op.Positions)-1] >= l:
			st.DiagonalOps++
		default:
			st.Clusters++
			st.ClusterSizes[len(op.Positions)]++
		}
	}
	here := func(q int) int { return q }
	for i := range c.Gates {
		g := &c.Gates[i]
		switch {
		case !st.countPerGate(g, l, specialized):
			emit(gateOp(g, here))
		case g.K() == 1:
			swap := Op{Kind: OpSwap, LocalPos: []int{l - 1}, GlobalPos: []int{g.Qubits[0]}}
			emit(swap)
			emit(gateOp(g, func(int) int { return l - 1 }))
			emit(swap)
		case g.IsDiagonal():
			emit(gateOp(g, here))
		default:
			return nil, fmt.Errorf("schedule: the per-gate scheme cannot execute dense %d-qubit gate %v (gate %d) on global qubits", g.K(), g, i)
		}
	}
	st.Stages = p.Stages()
	if st.Clusters > 0 {
		st.GatesPerCluster = 1
	}
	p.Stats = st
	return p, nil
}

// countPerGate is the per-gate scheme's rule for gate g with qubit q at
// location q: a gate on a location ≥ l is global, and a global gate is one
// communication step unless it is diagonal and specialized lets it run
// without (Sec. 3.5; Fig. 5, lower panels). It counts both in st and reports
// whether g is a step. PerGate emits by it and Build counts with it, so
// every plan carries the scheme's counts for its circuit.
func (st *Stats) countPerGate(g *circuit.Gate, l int, specialized func(*circuit.Gate) bool) (step bool) {
	if !slices.ContainsFunc(g.Qubits, func(q int) bool { return q >= l }) {
		return false
	}
	st.BaselineGlobalGatesDense++
	if g.IsDiagonal() && specialized(g) {
		return false
	}
	st.BaselineGlobalGates++
	return true
}
