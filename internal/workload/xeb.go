package workload

import (
	"math/rand"

	"qusim/internal/circuit"
	"qusim/internal/xeb"
)

// xebWorkload is the cross-entropy benchmarking use case (Boixo et al., the
// Arute et al. supremacy experiment's scoring step): simulate a chaotic
// circuit for its ideal output distribution, then score sampled bitstrings
// against it. The estimators are gated against the circuit's *own* exact
// moments rather than the asymptotic Porter–Thomas values — at CI-sized
// instances the exact linear score 2^n·Σp²−1 fluctuates seed-to-seed around
// 1 (finite-size anti-concentration), but the estimator-validity properties
// hold exactly: the ideal sampler must recover the exact score, the uniform
// sampler must score 0, and a depolarized mix at α = 0.5 must recover half
// the exact score — all within the sampling error, with wide margins.
func xebWorkload() Workload {
	return Workload{
		Name:        "xeb",
		Stresses:    "internal/xeb estimators, state sampling, probability extraction",
		Expectation: "sampled XEB scores recover the exact moments: ideal ⇒ L, uniform ⇒ 0, α=0.5 mix ⇒ L/2",
		Build: func(p Params) (*Instance, error) {
			rows, cols, depth, shots := 3, 4, 20, 8192
			if p.Tier == TierFull {
				rows, cols, depth, shots = 4, 4, 20, 32768
			}
			c := circuit.Supremacy(circuit.SupremacyOptions{
				Rows: rows, Cols: cols, Depth: depth, Seed: p.Seed + 100,
			})
			n := rows * cols
			inst := &Instance{Qubits: n, Circuits: []*circuit.Circuit{c}}
			inst.Run = func(h *Harness) (*Result, error) {
				r := &Result{Gates: len(c.Gates), Work: map[string]float64{}, Values: map[string]float64{}}
				v, err := h.State(c)
				if err != nil {
					return nil, err
				}
				h.checkNorm(r, "state", v)
				probs := v.Probabilities()
				rng := rand.New(rand.NewSource(p.Seed*0x9e3779b9 + 42))

				// Exact moments of this instance: the ideal sampler's linear
				// score L = 2^n·Σp²−1, and the exact cross entropy of ideal
				// sampling, which is the Shannon entropy of p.
				var s2 float64
				for _, q := range probs {
					s2 += q * q
				}
				entropy := v.Entropy()
				exactLin := float64(int(1)<<n)*s2 - 1
				r.Values["exact-linear-xeb"] = exactLin
				// Chaoticity stays advisory-loose: small instances wander in
				// a finite-size band around the Porter–Thomas value 1.
				r.checkBound("exact linear score (chaoticity band)", exactLin, 0.5, 4)

				ideal, err := xeb.Sample(probs, shots, rng)
				if err != nil {
					return nil, err
				}
				lin, err := xeb.LinearXEB(n, probs, ideal)
				if err != nil {
					return nil, err
				}
				r.Values["xeb-ideal"] = lin
				r.checkBound("ideal sampler recovers exact score", lin/exactLin, 0.9, 1.1)

				ce, err := xeb.CrossEntropy(probs, ideal)
				if err != nil {
					return nil, err
				}
				alpha := xeb.FidelityFromCrossEntropy(n, ce)
				alphaExact := xeb.FidelityFromCrossEntropy(n, entropy)
				r.Values["ce-fidelity-ideal"] = alpha
				r.checkBound("cross-entropy fidelity vs exact", alpha-alphaExact, -0.1, 0.1)

				uniform := xeb.UniformSample(n, shots, rng)
				lin, err = xeb.LinearXEB(n, probs, uniform)
				if err != nil {
					return nil, err
				}
				r.Values["xeb-uniform"] = lin
				r.checkBound("uniform sampler scores zero", lin, -0.15, 0.15)

				mixed, err := xeb.Sample(xeb.DepolarizedProbs(probs, 0.5), shots, rng)
				if err != nil {
					return nil, err
				}
				lin, err = xeb.LinearXEB(n, probs, mixed)
				if err != nil {
					return nil, err
				}
				r.Values["xeb-mixed"] = lin
				r.checkBound("α=0.5 mix recovers half the score", lin/(0.5*exactLin), 0.8, 1.2)

				r.Work["amps"] = float64(len(c.Gates)) * float64(int(1)<<n)
				r.Work["samples"] = float64(3 * shots)
				return r, nil
			}
			return inst, nil
		},
	}
}
