package workload

import (
	"fmt"

	"qusim/internal/circuit"
)

// The parameter-sweep workloads: the same ansatz structure re-run across
// seeded parameter sets. Parameter set 0 is always all-zeros, pinning the
// observable to a closed-form anchor (uniform-state cut value for QAOA,
// chain ground energy for VQE); the remaining sets are checked against the
// observable's exact range.

// runSweep executes the shared sweep loop: run every circuit's state through
// the harness backend and hand the probabilities to score. It appends the
// sweep work counters to r.
func runSweep(h *Harness, r *Result, circuits []*circuit.Circuit,
	score func(i int, probs []float64) error) error {
	for i, c := range circuits {
		v, err := h.State(c)
		if err != nil {
			return err
		}
		h.checkNorm(r, fmt.Sprintf("sweep %d", i), v)
		if err := score(i, v.Probabilities()); err != nil {
			return err
		}
	}
	sweeps := float64(len(circuits))
	r.Work["sweeps"] = sweeps
	r.Work["gates"] = float64(r.Gates)
	r.Work["amps"] = float64(r.Gates) * float64(int(1)<<circuits[0].N)
	return nil
}

func qaoaSweepWorkload() Workload {
	return Workload{
		Name:        "qaoa-sweep",
		Stresses:    "diagonal fast path, plan construction, StructureFingerprint analysis cache",
		Expectation: "zero-parameter point cuts exactly n/2; every point in [0, n]; ≥ sweeps−2 cache hits",
		Build: func(p Params) (*Instance, error) {
			n, layers, sweeps := 12, 2, 8
			if p.Tier == TierFull {
				n, layers, sweeps = 18, 3, 12
			}
			sets := circuit.SweepParams(p.Seed+300, sweeps, 2*layers)
			circuits := make([]*circuit.Circuit, sweeps)
			for i, set := range sets {
				circuits[i] = circuit.QAOAMaxCutRing(n, set[:layers], set[layers:])
			}
			edges := circuit.RingEdges(n)
			inst := &Instance{Qubits: n, Circuits: circuits}
			inst.Run = func(h *Harness) (*Result, error) {
				r := &Result{Gates: totalGates(circuits), Work: map[string]float64{}, Values: map[string]float64{}}
				err := runSweep(h, r, circuits, func(i int, probs []float64) error {
					cut := circuit.MaxCutExpectation(probs, edges)
					r.Values[fmt.Sprintf("cut-%d", i)] = cut
					if i == 0 {
						r.checkBound("zero-parameter cut", cut,
							float64(n)/2-h.ValueTol, float64(n)/2+h.ValueTol)
					} else {
						r.checkBound(fmt.Sprintf("cut %d in range", i), cut,
							-h.ValueTol, float64(n)+h.ValueTol)
					}
					return nil
				})
				if err != nil {
					return nil, err
				}
				return r, nil
			}
			return inst, nil
		},
	}
}

func vqeAnsatzWorkload() Workload {
	return Workload{
		Name:        "vqe-ansatz",
		Stresses:    "dense 1q kernels + CZ specialization, plan construction, analysis cache",
		Expectation: "zero-angle point at the chain ground energy −(n−1); every point within ±(n−1); ≥ sweeps−2 cache hits",
		Build: func(p Params) (*Instance, error) {
			n, layers, sweeps := 10, 3, 8
			if p.Tier == TierFull {
				n, layers, sweeps = 14, 4, 12
			}
			sets := circuit.SweepParams(p.Seed+400, sweeps, layers*n)
			circuits := make([]*circuit.Circuit, sweeps)
			for i, set := range sets {
				circuits[i] = circuit.HardwareEfficientAnsatz(n, layers, set)
			}
			inst := &Instance{Qubits: n, Circuits: circuits}
			inst.Run = func(h *Harness) (*Result, error) {
				r := &Result{Gates: totalGates(circuits), Work: map[string]float64{}, Values: map[string]float64{}}
				bound := float64(n - 1)
				err := runSweep(h, r, circuits, func(i int, probs []float64) error {
					e := circuit.IsingChainEnergy(probs, n)
					r.Values[fmt.Sprintf("energy-%d", i)] = e
					if i == 0 {
						r.checkBound("zero-angle energy", e, -bound-h.ValueTol, -bound+h.ValueTol)
					} else {
						r.checkBound(fmt.Sprintf("energy %d in range", i), e,
							-bound-h.ValueTol, bound+h.ValueTol)
					}
					return nil
				})
				if err != nil {
					return nil, err
				}
				return r, nil
			}
			return inst, nil
		},
	}
}
