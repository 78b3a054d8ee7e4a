package noise

import (
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"

	"qusim/internal/circuit"
	"qusim/internal/gate"
	"qusim/internal/statevec"
)

// density is the exact mixed-state oracle the trajectories are held to: ρ
// of an n-qubit system vectorized as a 2n-qubit state, ρ[r][c] at index
// c·2^n + r, so ρ → UρU† is U on bits qs and Ū on bits qs+n. Memory is 4^n
// amplitudes, so it serves small systems only.
type density struct {
	n   int
	vec []complex128
}

// pureDensity returns ρ = |ψ⟩⟨ψ|.
func pureDensity(v *statevec.Vector) *density {
	d := 1 << v.N
	m := &density{n: v.N, vec: make([]complex128, d*d)}
	for c := 0; c < d; c++ {
		for r := 0; r < d; r++ {
			m.vec[c*d+r] = v.Amps[r] * cmplx.Conj(v.Amps[c])
		}
	}
	return m
}

// apply evolves ρ → UρU†.
func (m *density) apply(u gate.Matrix, qs ...int) {
	sv := statevec.FromAmplitudes(m.vec)
	sv.Apply(u, qs...)
	conj := gate.New(u.K)
	for i, x := range u.Data {
		conj.Data[i] = cmplx.Conj(x)
	}
	cols := make([]int, len(qs))
	for i, q := range qs {
		cols[i] = q + m.n
	}
	sv.Apply(conj, cols...)
}

// channel applies the Pauli channel exactly: ρ → Σ_P p_P·PρP.
func (m *density) channel(ch Channel, q int) {
	acc := make([]complex128, len(m.vec))
	for i, u := range []gate.Matrix{gate.Identity(1), gate.X(), gate.Y(), gate.Z()} {
		p := []float64{1 - ch.PX - ch.PY - ch.PZ, ch.PX, ch.PY, ch.PZ}[i]
		branch := &density{n: m.n, vec: slices.Clone(m.vec)}
		branch.apply(u, q)
		for j, x := range branch.vec {
			acc[j] += complex(p, 0) * x
		}
	}
	m.vec = acc
}

// probabilities returns the diagonal of ρ.
func (m *density) probabilities() []float64 {
	out := make([]float64, 1<<m.n)
	for i := range out {
		out[i] = real(m.vec[i<<m.n+i])
	}
	return out
}

// purity returns Tr ρ² = Σ|ρ[r][c]|² (ρ Hermitian).
func (m *density) purity() float64 {
	var s float64
	for _, x := range m.vec {
		s += real(x)*real(x) + imag(x)*imag(x)
	}
	return s
}

// fidelity returns ⟨ψ|ρ|ψ⟩.
func (m *density) fidelity(psi *statevec.Vector) float64 {
	d := 1 << m.n
	var f complex128
	for c := 0; c < d; c++ {
		var row complex128
		for r := 0; r < d; r++ {
			row += cmplx.Conj(psi.Amps[r]) * m.vec[c<<m.n+r]
		}
		f += row * psi.Amps[c]
	}
	return real(f)
}

// bell3 returns ρ of (|000⟩ + |011⟩)/√2 built by gates.
func bell3() *density {
	m := pureDensity(statevec.New(3))
	m.apply(gate.H(), 0)
	m.apply(gate.CNOT(), 1, 0)
	return m
}

func TestPureStateEvolutionMatchesStatevec(t *testing.T) {
	n := 5
	c := circuit.Supremacy(circuit.SupremacyOptions{Rows: 5, Cols: 1, Depth: 10, Seed: 1})
	v := statevec.New(n)
	m := pureDensity(v)
	for i := range c.Gates {
		g := &c.Gates[i]
		v.Apply(g.Matrix(), g.Qubits...)
		m.apply(g.Matrix(), g.Qubits...)
	}
	want := pureDensity(v)
	var maxd float64
	for i := range m.vec {
		maxd = max(maxd, cmplx.Abs(m.vec[i]-want.vec[i]))
	}
	if maxd > 1e-10 {
		t.Errorf("density matrix evolution deviates from |ψ⟩⟨ψ|: %g", maxd)
	}
	if math.Abs(m.purity()-1) > 1e-10 {
		t.Errorf("pure evolution lost purity: %v", m.purity())
	}
}

func TestTracePreservedUnderChannels(t *testing.T) {
	m := bell3()
	for _, ch := range []Channel{Depolarizing(0.1), {Name: "dephasing", PZ: 0.2}, {Name: "bit-flip", PX: 0.3}} {
		m.channel(ch, 1)
		var trace float64
		for _, p := range m.probabilities() {
			trace += p
		}
		if math.Abs(trace-1) > 1e-10 {
			t.Errorf("%s: trace drifted to %v", ch.Name, trace)
		}
	}
}

func TestDepolarizingDrivesToMaximallyMixed(t *testing.T) {
	// Repeated full-strength depolarizing on every qubit sends any state
	// to 1/2^n.
	n := 3
	m := bell3()
	m.apply(gate.CNOT(), 2, 1)
	for iter := 0; iter < 60; iter++ {
		for q := 0; q < n; q++ {
			m.channel(Depolarizing(0.75), q)
		}
	}
	if want := 1 / float64(int(1)<<n); math.Abs(m.purity()-want) > 1e-6 {
		t.Errorf("purity %v, want %v (maximally mixed)", m.purity(), want)
	}
	for i, p := range m.probabilities() {
		if math.Abs(p-1/8.0) > 1e-6 {
			t.Errorf("P(%d) = %v, want 1/8", i, p)
		}
	}
}

func TestDephasingKillsCoherencesKeepsPopulations(t *testing.T) {
	m := pureDensity(statevec.New(1))
	m.apply(gate.H(), 0)
	// ρ = [[1/2,1/2],[1/2,1/2]]; full dephasing (p=1/2) zeroes the
	// off-diagonals: Z with prob 1/2 → ρ' = (ρ + ZρZ)/2.
	m.channel(Channel{Name: "dephasing", PZ: 0.5}, 0)
	// vec = [ρ00 ρ10 ρ01 ρ11]
	if cmplx.Abs(m.vec[1]) > 1e-12 || cmplx.Abs(m.vec[2]) > 1e-12 {
		t.Errorf("coherences survived full dephasing: %v, %v", m.vec[2], m.vec[1])
	}
	if cmplx.Abs(m.vec[0]-0.5) > 1e-12 || cmplx.Abs(m.vec[3]-0.5) > 1e-12 {
		t.Errorf("populations changed: %v, %v", m.vec[0], m.vec[3])
	}
}

// TestTrajectoriesConvergeToExactChannel is the headline validation: the
// Monte Carlo noise engine must converge to the exact density-matrix
// evolution, in both output distribution and fidelity.
func TestTrajectoriesConvergeToExactChannel(t *testing.T) {
	n := 6
	r, cgrid := circuit.GridForQubits(n)
	c := circuit.Supremacy(circuit.SupremacyOptions{Rows: r, Cols: cgrid, Depth: 10, Seed: 7})
	ch := Depolarizing(0.01)

	ideal := statevec.New(n)
	exact := pureDensity(ideal)
	for i := range c.Gates {
		g := &c.Gates[i]
		ideal.Apply(g.Matrix(), g.Qubits...)
		exact.apply(g.Matrix(), g.Qubits...)
		for _, q := range g.Qubits {
			exact.channel(ch, q)
		}
	}
	mc, err := Run(c, ch, 600, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	var maxd float64
	for i, p := range exact.probabilities() {
		maxd = max(maxd, math.Abs(p-mc.MeanProbs[i]))
	}
	if maxd > 0.02 {
		t.Errorf("trajectory-averaged probabilities deviate from exact channel: max %g", maxd)
	}
	if exactF := exact.fidelity(ideal); math.Abs(exactF-mc.MeanFidelity) > 0.05 {
		t.Errorf("fidelity: exact channel %v vs trajectories %v", exactF, mc.MeanFidelity)
	}
}

func TestFidelityPureAgainstItself(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	v := statevec.New(4)
	for i := 0; i < 6; i++ {
		v.Apply(gate.RandomUnitary(1, rng), rng.Intn(4))
	}
	if f := pureDensity(v).fidelity(v); math.Abs(f-1) > 1e-10 {
		t.Errorf("⟨ψ|ρ|ψ⟩ = %v for ρ = |ψ⟩⟨ψ|", f)
	}
}
