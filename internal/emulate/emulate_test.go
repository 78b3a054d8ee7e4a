package emulate

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"qusim/internal/circuit"
	"qusim/internal/statevec"
)

func randomVector(n int, rng *rand.Rand) *statevec.Vector {
	v := statevec.New(n)
	var norm float64
	for i := range v.Amps {
		v.Amps[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		norm += real(v.Amps[i])*real(v.Amps[i]) + imag(v.Amps[i])*imag(v.Amps[i])
	}
	inv := complex(1/math.Sqrt(norm), 0)
	for i := range v.Amps {
		v.Amps[i] *= inv
	}
	return v
}

func runCircuit(c *circuit.Circuit, v *statevec.Vector) {
	for i := range c.Gates {
		g := &c.Gates[i]
		v.Apply(g.Matrix(), g.Qubits...)
	}
}

func TestEmulatedQFTMatchesGateQFT(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	for _, n := range []int{3, 6, 7, 9} {
		v := randomVector(n, rng)
		gateWay := v.Clone()
		runCircuit(circuit.QFT(n), gateWay)

		fftWay := v.Clone()
		QFT(fftWay)

		if d := gateWay.MaxDiff(fftWay); d > 1e-9 {
			t.Errorf("n=%d: emulated QFT deviates from gate QFT: %g", n, d)
		}
	}
}

func TestQFTPreservesNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	v := randomVector(10, rng)
	QFT(v)
	if math.Abs(v.Norm()-1) > 1e-10 {
		t.Errorf("norm after emulated QFT: %v", v.Norm())
	}
}

func TestFFTRejectsNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	fft(make([]complex128, 3), false)
}

// TestEmulationSpeedAdvantage checks the related-work claim: the FFT
// emulation is asymptotically cheaper than the n² gate applications. On a
// 16-qubit state it must win comfortably.
func TestEmulationSpeedAdvantage(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	n := 16
	rng := rand.New(rand.NewSource(104))
	v := randomVector(n, rng)
	c := circuit.QFT(n)

	g := v.Clone()
	t0 := time.Now()
	runCircuit(c, g)
	gateTime := time.Since(t0)

	e := v.Clone()
	t0 = time.Now()
	QFT(e)
	fftTime := time.Since(t0)

	if fftTime*2 > gateTime {
		t.Logf("warning: emulation only %.1fx faster (gate %v, fft %v)",
			gateTime.Seconds()/fftTime.Seconds(), gateTime, fftTime)
	}
	if d := g.MaxDiff(e); d > 1e-9 {
		t.Errorf("fast path diverges: %g", d)
	}
}
