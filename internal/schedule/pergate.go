package schedule

import (
	"fmt"
	"slices"

	"qusim/internal/circuit"
	"qusim/internal/gate"
	"qusim/internal/statevec"
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
	// gateOp is the gate as one op with qubit q at location at(q).
	gateOp := func(g *circuit.Gate, at func(q int) int) Op {
		if g.IsDiagonal() {
			return diagonalOp(g, at)
		}
		pos := make([]int, len(g.Qubits))
		for j, q := range g.Qubits {
			pos[j] = at(q)
		}
		m := g.Matrix()
		sorted, perm := statevec.SortPositions(pos)
		if perm != nil {
			m = gate.PermuteQubits(m, perm)
		}
		return Op{Kind: OpCluster, Matrix: m, Positions: sorted, GateCount: 1}
	}
	here := func(q int) int { return q }
	for i := range c.Gates {
		g := &c.Gates[i]
		global := false
		for _, q := range g.Qubits {
			global = global || q >= l
		}
		if !global {
			emit(gateOp(g, here))
			continue
		}
		st.BaselineGlobalGatesDense++
		if g.IsDiagonal() && specialized(g) {
			emit(gateOp(g, here))
			continue
		}
		st.BaselineGlobalGates++
		switch {
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
