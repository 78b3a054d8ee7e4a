package workload

import (
	"fmt"
	"sort"

	"qusim/internal/circuit"
	"qusim/internal/statevec"
	"qusim/internal/verify"
)

// Harness is the shared execution layer: it resolves the backend selection
// to one of the verified execution paths (all of them return amplitudes in
// logical qubit order, so workloads score states identically regardless of
// path) and carries the tolerances the expectations use — the
// single-precision backend cannot meet the exact-path bars.
type Harness struct {
	Params Params
	// NormTol bounds |1 − Σp| on every produced state.
	NormTol float64
	// ValueTol bounds deviations from closed-form anchors (uniform-state
	// cut value, zero-angle ansatz energy).
	ValueTol float64

	backend verify.Backend
}

// backendFactories maps the -backend names to verified execution paths.
// The splits mirror the verify matrix quick tier: dist at 4 simulated
// ranks, oocvec at 4 file chunks with the prefetch pipeline armed.
var backendFactories = map[string]func() verify.Backend{
	"statevec": verify.Kernel,
	"f32vec":   verify.F32,
	"dist":     func() verify.Backend { return verify.Distributed(4) },
	"oocvec":   func() verify.Backend { return verify.OutOfCore(2, 3) },
}

// Backends returns the selectable backend names, sorted.
func Backends() []string {
	names := make([]string, 0, len(backendFactories))
	for n := range backendFactories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NewHarness resolves p.Backend ("" defaults to statevec).
func NewHarness(p Params) (*Harness, error) {
	name := p.Backend
	if name == "" {
		name = "statevec"
	}
	mk, ok := backendFactories[name]
	if !ok {
		return nil, fmt.Errorf("unknown backend %q (have %v)", p.Backend, Backends())
	}
	h := &Harness{Params: p, NormTol: 1e-9, ValueTol: 1e-9, backend: mk()}
	if name == "f32vec" {
		// float32 carries ~7 digits and the error grows with depth; the
		// verify F32 engine runs at 5e-4, leave the same margin here.
		h.NormTol, h.ValueTol = 5e-4, 5e-3
	}
	return h, nil
}

// BackendName returns the resolved execution-path name.
func (h *Harness) BackendName() string { return h.backend.Name() }

// State simulates c from |0…0⟩ through the selected backend and returns
// the final state in logical qubit order.
func (h *Harness) State(c *circuit.Circuit) (*statevec.Vector, error) {
	amps, err := h.backend.Run(c)
	if err != nil {
		return nil, fmt.Errorf("backend %s on %s: %w", h.backend.Name(), c.Name, err)
	}
	return statevec.FromAmplitudes(amps), nil
}

// checkNorm appends the universal Σp ≈ 1 expectation for a produced state.
func (h *Harness) checkNorm(r *Result, label string, v *statevec.Vector) {
	r.checkBound(label+" norm", v.Norm(), 1-h.NormTol, 1+h.NormTol)
}
