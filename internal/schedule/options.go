// Package schedule implements the circuit optimizations of Sec. 3.6 of
// Häner & Steiger, SC'17: gate scheduling into communication-free stages,
// greedy clustering of gates into k ≤ kmax qubit fused gates — as wide as
// a price list of the kernels (CostTable) makes worthwhile — local
// adjustment of global-to-local swaps across stage boundaries, and the
// qubit-mapping heuristic. Its output is an executable Plan consumed by the
// single-node executor in this package and by the distributed engine in
// package dist.
package schedule

import "fmt"

// SwapPolicy selects how the residency set of the next stage is chosen at a
// global-to-local swap.
type SwapPolicy int

const (
	// SwapGreedy is the paper's "cheap search algorithm to find better
	// local qubits to swap with": the next resident set is built by walking
	// the remaining circuit and admitting the qubits of the longest
	// schedulable prefix, keeping still-useful residents.
	SwapGreedy SwapPolicy = iota
	// SwapLowestOrder is the paper's baseline upper bound: every global
	// qubit is swapped in, evicting the lowest-order local qubits
	// regardless of whether they are needed soon.
	SwapLowestOrder
)

func (p SwapPolicy) String() string {
	switch p {
	case SwapGreedy:
		return "greedy"
	case SwapLowestOrder:
		return "lowest-order"
	}
	return fmt.Sprintf("SwapPolicy(%d)", int(p))
}

// MappingPolicy selects the initial qubit → bit-location assignment.
type MappingPolicy int

const (
	// MapIdentity assigns resident qubits to local bit locations in qubit
	// order.
	MapIdentity MappingPolicy = iota
	// MapHeuristic applies the cache-associativity-aware heuristic of
	// Sec. 3.6.2: hot qubits (those appearing in the most clusters) are
	// assigned the low-order bit locations.
	MapHeuristic
)

func (p MappingPolicy) String() string {
	switch p {
	case MapIdentity:
		return "identity"
	case MapHeuristic:
		return "heuristic"
	}
	return fmt.Sprintf("MappingPolicy(%d)", int(p))
}

// Options configures Build.
type Options struct {
	// LocalQubits is l: qubits at bit locations < l are stored node-locally
	// (2^l amplitudes per rank); the remaining n−l are global (encoded in
	// the rank number). LocalQubits ≥ n means a single rank and no
	// communication.
	LocalQubits int
	// KMax caps the fused-gate size (Table 1 evaluates 3, 4 and 5). Below
	// the cap, Costs decides how wide a cluster is worth growing.
	KMax int
	// SpecializeDiagonal2Q enables executing diagonal two-qubit gates (CZ)
	// on global qubits without communication (Sec. 3.5). The paper's stage
	// finder always uses this.
	SpecializeDiagonal2Q bool
	// SpecializeDiagonal1Q additionally specializes diagonal single-qubit
	// gates (T, Z, S, Rz). The paper's stage finder assumes the worst case
	// — random single-qubit gates treated as dense — so this defaults off
	// for scheduling (Sec. 3.6.1 step 1); enabling it models the
	// "median hard instances" of Fig. 5.
	SpecializeDiagonal1Q bool
	// SwapPolicy picks the residency-selection strategy.
	SwapPolicy SwapPolicy
	// AdjustBoundaries enables step 3 of Sec. 3.6.1: trailing clusters of a
	// stage whose qubits stay resident are deferred across the swap to grow
	// the next stage's clusters.
	AdjustBoundaries bool
	// Mapping picks the initial bit-location assignment.
	Mapping MappingPolicy
	// Clustering enables gate fusion. When false every local gate becomes
	// its own cluster (the ablation baseline).
	Clustering bool
	// NoSeedSearch disables the "small local search" of Sec. 3.6.1 step 2
	// that tries every ready gate as the cluster seed and keeps the
	// cluster cheapest per merged gate (under PaperCosts: the largest);
	// instead the earliest ready gate always seeds. An ablation knob —
	// the search reduces the total cluster count.
	NoSeedSearch bool
	// Costs is the kernels' price list the clustering fuses by (see
	// CostTable). The zero value is MeasuredCosts; PaperCosts restores the
	// paper's fuse-whenever-it-fits clustering.
	Costs CostTable
}

// DefaultOptions returns the paper's scheduling choices — greedy swap
// search, CZ specialization, worst-case dense single-qubit gates, boundary
// adjustment, heuristic mapping — with clustering capped at kmax = 5 (the
// widest kernel there is) and priced by MeasuredCosts, so clusters grow
// only as wide as this repository's kernels make worthwhile. Set Costs to
// PaperCosts for the paper's clustering. KMax is clamped to localQubits so
// tiny local windows still validate.
func DefaultOptions(localQubits int) Options {
	kmax := 5
	if localQubits >= 1 && localQubits < kmax {
		// A cluster cannot span more qubits than are resident; keep the
		// default valid for tiny local partitions. localQubits 0 is the
		// "caller fills LocalQubits in later" sentinel and keeps the full
		// paper default.
		kmax = localQubits
	}
	return Options{
		LocalQubits:          localQubits,
		KMax:                 kmax,
		SpecializeDiagonal2Q: true,
		SpecializeDiagonal1Q: false,
		SwapPolicy:           SwapGreedy,
		AdjustBoundaries:     true,
		Mapping:              MapHeuristic,
		Clustering:           true,
	}
}

// checkQubits rejects, before anything is sized by it, a circuit no plan
// can address: a plan needs a qubit, and locations are bits of a uint64.
func checkQubits(n int) error {
	if n < 1 || n > 62 {
		return fmt.Errorf("schedule: %d qubits is outside the 1…62 a plan addresses", n)
	}
	return nil
}

func (o Options) validate(n int) error {
	if o.LocalQubits < 1 {
		return fmt.Errorf("schedule: LocalQubits must be ≥ 1, got %d", o.LocalQubits)
	}
	if o.KMax < 1 {
		return fmt.Errorf("schedule: KMax must be ≥ 1, got %d", o.KMax)
	}
	l := o.LocalQubits
	if l > n {
		l = n
	}
	if o.KMax > l {
		return fmt.Errorf("schedule: KMax %d exceeds local qubits %d", o.KMax, l)
	}
	return o.Costs.resolve().validate()
}
