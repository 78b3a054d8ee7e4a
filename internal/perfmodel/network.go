package perfmodel

import (
	"math"

	"qusim/internal/schedule"
)

// Network models the effective all-to-all bandwidth of a dragonfly
// interconnect. The per-node effective bandwidth during a machine-wide
// all-to-all decays with node count (bisection taper); the constants are
// calibrated against the measured communication fractions of Table 2
// (see EXPERIMENTS.md).
type Network struct {
	Name string
	// B0 is the per-node effective all-to-all bandwidth in GB/s at 1 node
	// group; Alpha the taper exponent: effBW = B0 · nodes^(−Alpha).
	B0    float64
	Alpha float64
	// LatencySec is the fixed per-collective cost.
	LatencySec float64
}

// CrayAries returns the Table 2-calibrated model of Cori II's interconnect.
func CrayAries() Network {
	return Network{Name: "Cray Aries dragonfly (calibrated)", B0: 4.5, Alpha: 0.30, LatencySec: 1e-3}
}

// EffectiveBW returns the per-node all-to-all bandwidth in GB/s at the
// given node count.
func (nw Network) EffectiveBW(nodes int) float64 {
	if nodes <= 1 {
		return nw.B0
	}
	return nw.B0 * math.Pow(float64(nodes), -nw.Alpha)
}

// SwapTime returns the seconds of one global-to-local swap (one round of
// group all-to-alls) with 2^l local amplitudes per node.
func (nw Network) SwapTime(nodes, l int) float64 {
	if nodes <= 1 {
		return 0
	}
	bytes := math.Pow(2, float64(l)) * 16
	return bytes/(nw.EffectiveBW(nodes)*1e9) + nw.LatencySec
}

// GlobalGateTime returns the seconds of one dense global gate under the
// per-gate scheme: averaged over the global qubits it costs about half a
// full swap (Sec. 4.1.2, citing [5]).
func (nw Network) GlobalGateTime(nodes, l int) float64 {
	return nw.SwapTime(nodes, l) / 2
}

// RunEstimate is a modeled execution of a full circuit run.
type RunEstimate struct {
	Nodes        int
	LocalQubits  int
	ComputeSec   float64
	CommSec      float64
	TotalSec     float64
	CommFraction float64
	// PFLOPS is the modeled sustained machine performance.
	PFLOPS float64
}

// EstimateScheduled models a run of a scheduled plan on nodes× m with
// network nw: clusters and diagonal ops sweep the local state, swaps pay
// the all-to-all cost (Table 2, Fig. 8).
func EstimateScheduled(m Machine, nw Network, stats schedule.Stats, nodes int) RunEstimate {
	l := stats.Qubits - log2(nodes)
	var compute, flops float64
	for k, count := range stats.ClusterSizes {
		compute += float64(count) * m.KernelTime(k, l)
		flops += float64(count) * KernelFlops(l, k)
	}
	// The diagonals the fold left, one sweep each (floored at zero: a fold
	// may also absorb a diagonal cluster, which stays priced as a cluster).
	compute += float64(max(0, stats.DiagonalOps-stats.FoldedDiagonals)) * m.SweepTime(l)
	// Exact: every permutation Build emits is one pair-swap pass.
	compute += float64(stats.LocalPerms) * m.SweepTime(l)
	comm := float64(stats.Swaps) * nw.SwapTime(nodes, l)
	return finishEstimate(nodes, l, compute, comm, flops)
}

// EstimateBaseline models the per-gate scheme of [5]: every gate is its own
// sweep of the local state; every dense global gate pays half a swap
// (Table 2's reference runs).
func EstimateBaseline(m Machine, nw Network, stats schedule.Stats, nodes int) RunEstimate {
	l := stats.Qubits - log2(nodes)
	// All gates execute unfused: model them as 1- and 2-qubit sweeps
	// (supremacy circuits average ≈ 1.4 qubits per gate).
	compute := float64(stats.Gates) * m.KernelTime(1, l)
	flops := float64(stats.Gates) * KernelFlops(l, 1)
	comm := float64(stats.BaselineGlobalGates) * nw.GlobalGateTime(nodes, l)
	return finishEstimate(nodes, l, compute, comm, flops)
}

func finishEstimate(nodes, l int, compute, comm, flops float64) RunEstimate {
	total := compute + comm
	e := RunEstimate{
		Nodes:       nodes,
		LocalQubits: l,
		ComputeSec:  compute,
		CommSec:     comm,
		TotalSec:    total,
	}
	if total > 0 {
		e.CommFraction = comm / total
		e.PFLOPS = float64(nodes) * flops / total / 1e15
	}
	return e
}

func log2(n int) int {
	k := 0
	for 1<<k < n {
		k++
	}
	return k
}
