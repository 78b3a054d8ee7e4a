package schedule

import (
	"fmt"
	"strings"

	"qusim/internal/gate"
	"qusim/internal/statevec"
)

// OpKind identifies a plan operation.
type OpKind int

const (
	// OpCluster applies a fused k-qubit unitary to local bit locations.
	OpCluster OpKind = iota
	// OpDiagonal applies a diagonal gate; its positions may include global
	// bit locations (≥ l) — the gate specialization of Sec. 3.5, which
	// needs no communication.
	OpDiagonal
	// OpLocalPerm relabels local bit locations (the in-node swaps that
	// bring arbitrary local qubits to the highest-order local positions
	// before an all-to-all, Sec. 3.4). Build emits one only where an
	// outgoing qubit sits below them, as disjoint transpositions.
	OpLocalPerm
	// OpSwap is a global-to-local swap: LocalPos[j] ↔ GlobalPos[j],
	// realized by group all-to-alls (one communication step).
	OpSwap
)

func (k OpKind) String() string {
	switch k {
	case OpCluster:
		return "cluster"
	case OpDiagonal:
		return "diag"
	case OpLocalPerm:
		return "perm"
	case OpSwap:
		return "swap"
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// Op is one plan operation.
type Op struct {
	Kind OpKind

	// OpCluster: fused matrix over Positions (sorted ascending, all < l).
	// OpDiagonal: Diag entries over Positions (sorted ascending, any range).
	Matrix    gate.Matrix
	Diag      []complex128
	Positions []int

	// OpLocalPerm: Perm[p] is the new location of the qubit at local
	// location p; len(Perm) == l.
	Perm []int

	// OpSwap: pairwise exchange LocalPos[j] ↔ GlobalPos[j], LocalPos being
	// the top q local locations [l−q, l) in order — where the outgoing
	// qubits sit, or an OpLocalPerm before the swap, in its stage, brings
	// them.
	LocalPos  []int
	GlobalPos []int

	// GateCount is the number of circuit gates merged into this op.
	GateCount int
	// Stage is the index of the stage this op belongs to.
	Stage int
}

// Stats summarizes a plan for the Fig. 5 / Table 1 / Table 2 experiments.
type Stats struct {
	Qubits      int
	LocalQubits int
	Gates       int // circuit gates covered by the plan
	Stages      int
	Swaps       int // global-to-local swaps (communication steps)
	Clusters    int // fused-gate kernel invocations
	DiagonalOps int // specialized diagonal executions (incl. global ones)
	LocalPerms  int
	// FoldedDiagonals: ops the diagonal fold removed (the counts above are unfolded).
	FoldedDiagonals int
	// ClusterSizes[k] counts clusters acting on exactly k qubits.
	ClusterSizes map[int]int
	// GatesPerCluster is the mean number of circuit gates per cluster.
	GatesPerCluster float64
	// BaselineGlobalGates counts the communication steps the per-gate
	// scheme of [5]/[19] would need: gates touching a global qubit when
	// executed in circuit order with the initial mapping, under the same
	// specialization assumptions (Fig. 5, lower panels).
	BaselineGlobalGates int
	// BaselineGlobalGatesDense is the worst-case variant that treats every
	// single-qubit gate as dense (Fig. 5's dashed lines).
	BaselineGlobalGatesDense int
}

// Plan is a schedule of operations equivalent to the source circuit, up to
// the qubit → bit-location relabeling recorded in InitialPos/FinalPos.
type Plan struct {
	N int // total qubits
	L int // local qubits (bit locations < L are node-local)

	Ops []Op

	// InitialPos[q] is the bit location qubit q occupies before Ops run;
	// FinalPos[q] the location after. The amplitude the source circuit
	// stores at index Σ v_q·2^q lands at index Σ v_q·2^FinalPos[q].
	InitialPos []int
	FinalPos   []int

	Stats Stats
}

// Stages returns the number of swap-delimited stages in the plan (stage
// indices are contiguous from 0).
func (p *Plan) Stages() int {
	if len(p.Ops) == 0 {
		return 0
	}
	return p.Ops[len(p.Ops)-1].Stage + 1
}

// Run executes the plan on a full-size single-node state vector (bit
// locations ≥ L are ordinary bits of the index). The state must already be
// arranged with qubit q at location InitialPos[q]; for a fresh |0…0⟩ or
// uniform state any arrangement is equivalent.
func (p *Plan) Run(v *statevec.Vector) error {
	if v.N != p.N {
		return fmt.Errorf("schedule: plan is for %d qubits, state has %d", p.N, v.N)
	}
	sh := Shard[complex128]{Amps: v.Amps, L: v.N}
	return sh.Run(p, 0)
}

// PermutedIndex returns the state-vector index at which the amplitude of
// basis state b (qubit q = bit q of b) is found after Run.
func (p *Plan) PermutedIndex(b int) int {
	out := 0
	for q := 0; q < p.N; q++ {
		if b&(1<<q) != 0 {
			out |= 1 << p.FinalPos[q]
		}
	}
	return out
}

// LogicalIndex is the inverse of PermutedIndex: given a physical
// state-vector index after Run, it returns the logical basis state (qubit
// q = bit q). Used to translate distributed samples back to qubit order.
func (p *Plan) LogicalIndex(physical int) int {
	out := 0
	for q := 0; q < p.N; q++ {
		if physical&(1<<p.FinalPos[q]) != 0 {
			out |= 1 << q
		}
	}
	return out
}

// Summary renders the per-stage structure for the qsched tool.
func (p *Plan) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan: n=%d l=%d stages=%d swaps=%d clusters=%d diag-ops=%d folded=%d gates=%d\n",
		p.N, p.L, p.Stats.Stages, p.Stats.Swaps, p.Stats.Clusters, p.Stats.DiagonalOps, p.Stats.FoldedDiagonals, p.Stats.Gates)
	stage := -1
	for _, op := range p.Ops {
		if op.Stage != stage {
			stage = op.Stage
			fmt.Fprintf(&b, "stage %d:\n", stage)
		}
		switch op.Kind {
		case OpCluster:
			fmt.Fprintf(&b, "  cluster k=%d pos=%v gates=%d\n", len(op.Positions), op.Positions, op.GateCount)
		case OpDiagonal:
			fmt.Fprintf(&b, "  diag    k=%d pos=%v gates=%d\n", len(op.Positions), op.Positions, op.GateCount)
		case OpLocalPerm:
			fmt.Fprintf(&b, "  perm    local\n")
		case OpSwap:
			fmt.Fprintf(&b, "  SWAP    local=%v global=%v\n", op.LocalPos, op.GlobalPos)
		}
	}
	return b.String()
}
