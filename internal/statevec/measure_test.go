package statevec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"qusim/internal/gate"
)

// Projective measurement: the run paths sample shots or read
// probabilities, so measurement lives here, the tests' model of the Born rule.

// Measure samples qubit q's outcome with the Born probabilities, collapses
// the state onto it and returns the outcome bit.
func (v *State[T]) Measure(q int, rng *rand.Rand) int {
	outcome := 0
	if rng.Float64() < v.MarginalProbability(q) {
		outcome = 1
	}
	v.Collapse(q, outcome)
	return outcome
}

// Collapse projects qubit q onto outcome and renormalizes; it panics on an
// outcome of zero probability.
func (v *State[T]) Collapse(q, outcome int) {
	p := v.MarginalProbability(q)
	if outcome == 0 {
		p = 1 - p
	}
	if p <= 0 {
		panic(fmt.Sprintf("statevec: collapsing qubit %d onto zero-probability outcome %d", q, outcome))
	}
	inv := T(complex(1/math.Sqrt(p), 0))
	for i := range v.Amps {
		if i>>q&1 == outcome {
			v.Amps[i] *= inv
		} else {
			v.Amps[i] = 0
		}
	}
}

// MeasureAll measures every qubit and returns the bitstring.
func (v *State[T]) MeasureAll(rng *rand.Rand) int {
	out := 0
	for q := 0; q < v.N; q++ {
		out |= v.Measure(q, rng) << q
	}
	return out
}

// MarginalProbability returns P(qubit q = 1).
func (v *State[T]) MarginalProbability(q int) float64 {
	var s float64
	for i, a := range v.Amps {
		if w := complex128(a); i>>q&1 == 1 {
			s += real(w)*real(w) + imag(w)*imag(w)
		}
	}
	return s
}

func TestCollapseBasisState(t *testing.T) {
	v := New(3)
	v.Apply(gate.H(), 1)
	v.Collapse(1, 1)
	if math.Abs(v.Probability(0b010)-1) > 1e-12 {
		t.Errorf("collapse to |010⟩ failed: %v", v.Amps)
	}
	if math.Abs(v.Norm()-1) > 1e-12 {
		t.Errorf("norm after collapse %v", v.Norm())
	}
}

func TestCollapseZeroProbabilityPanics(t *testing.T) {
	v := New(2) // |00⟩: qubit 0 can never measure 1
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	v.Collapse(0, 1)
}

func TestMeasureStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	ones := 0
	shots := 5000
	for s := 0; s < shots; s++ {
		v := New(1)
		v.Apply(gate.Ry(2*math.Acos(math.Sqrt(0.3))), 0) // P(1) = 0.7
		ones += v.Measure(0, rng)
	}
	frac := float64(ones) / float64(shots)
	if math.Abs(frac-0.7) > 0.03 {
		t.Errorf("measured P(1) = %v, want ≈ 0.7", frac)
	}
}

func TestMeasureGHZCorrelations(t *testing.T) {
	// Measuring one GHZ qubit collapses all of them to the same value.
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 20; trial++ {
		v := New(4)
		v.Apply(gate.H(), 0)
		for q := 1; q < 4; q++ {
			v.Apply(gate.CNOT(), q, q-1) // target q, control q-1
		}
		first := v.Measure(0, rng)
		for q := 1; q < 4; q++ {
			if got := v.Measure(q, rng); got != first {
				t.Fatalf("trial %d: GHZ qubit %d measured %d, first was %d", trial, q, got, first)
			}
		}
	}
}

func TestMeasureAllMatchesDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	v := New(2)
	v.Apply(gate.H(), 0)
	v.Apply(gate.H(), 1)
	counts := map[int]int{}
	shots := 4000
	for s := 0; s < shots; s++ {
		w := v.Clone()
		counts[w.MeasureAll(rng)]++
	}
	for b := 0; b < 4; b++ {
		frac := float64(counts[b]) / float64(shots)
		if math.Abs(frac-0.25) > 0.035 {
			t.Errorf("P(%02b) = %v, want ≈ 0.25", b, frac)
		}
	}
}

func TestMeasureAllCollapsesToBasisState(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	v := NewUniform(5)
	b := v.MeasureAll(rng)
	if math.Abs(v.Probability(b)-1) > 1e-9 {
		t.Errorf("state not collapsed onto measured outcome %b", b)
	}
}

// measureStates is the shared table of prepared states for the
// measurement-invariant tests below.
var measureStates = []struct {
	name    string
	qubits  int
	target  int // qubit to measure
	prepare func(v *Vector)
}{
	{"zero", 2, 0, func(v *Vector) {}},
	{"one", 2, 1, func(v *Vector) { v.Apply(gate.X(), 1) }},
	{"plus", 1, 0, func(v *Vector) { v.Apply(gate.H(), 0) }},
	{"ghz4", 4, 2, func(v *Vector) {
		v.Apply(gate.H(), 0)
		for q := 1; q < 4; q++ {
			v.Apply(gate.CNOT(), q, q-1)
		}
	}},
	{"uniform5", 5, 3, func(v *Vector) {
		for q := 0; q < 5; q++ {
			v.Apply(gate.H(), q)
		}
	}},
	{"ry-biased", 3, 1, func(v *Vector) {
		v.Apply(gate.Ry(2*math.Acos(math.Sqrt(0.2))), 1) // P(1) = 0.8
		v.Apply(gate.H(), 0)
	}},
}

func prepared(tc struct {
	name    string
	qubits  int
	target  int
	prepare func(v *Vector)
}) *Vector {
	v := New(tc.qubits)
	tc.prepare(v)
	return v
}

func TestMeasurePreservesNorm(t *testing.T) {
	for _, tc := range measureStates {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(60))
			v := prepared(tc)
			v.Measure(tc.target, rng)
			if d := math.Abs(v.Norm() - 1); d > 1e-12 {
				t.Errorf("post-measurement norm off by %g", d)
			}
		})
	}
}

func TestMeasureCollapsesOppositeOutcome(t *testing.T) {
	for _, tc := range measureStates {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(61))
			v := prepared(tc)
			outcome := v.Measure(tc.target, rng)
			bit := 1 << tc.target
			keep := 0
			if outcome == 1 {
				keep = bit
			}
			for i, a := range v.Amps {
				if i&bit != keep && a != 0 {
					t.Fatalf("amplitude %d survived collapse onto outcome %d: %v", i, outcome, a)
				}
			}
		})
	}
}

func TestMeasureRepeatedIsIdempotent(t *testing.T) {
	for _, tc := range measureStates {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(62))
			v := prepared(tc)
			first := v.Measure(tc.target, rng)
			snapshot := append([]complex128(nil), v.Amps...)
			// A projective measurement is a projection: measuring the same
			// qubit again must reproduce the outcome and leave the state
			// untouched, whatever the RNG draws next.
			for rep := 0; rep < 3; rep++ {
				if again := v.Measure(tc.target, rng); again != first {
					t.Fatalf("repeat %d flipped outcome %d -> %d", rep, first, again)
				}
				for i := range snapshot {
					if v.Amps[i] != snapshot[i] {
						t.Fatalf("repeat %d changed amplitude %d: %v -> %v", rep, i, snapshot[i], v.Amps[i])
					}
				}
			}
		})
	}
}

func TestMeasureDeterministicRNG(t *testing.T) {
	// Same seed, same state → identical outcome and identical collapsed
	// amplitudes; replays of seeded experiments must be exact.
	for _, tc := range measureStates {
		t.Run(tc.name, func(t *testing.T) {
			run := func() (int, []complex128) {
				rng := rand.New(rand.NewSource(63))
				v := prepared(tc)
				o := v.Measure(tc.target, rng)
				return o, v.Amps
			}
			o1, a1 := run()
			o2, a2 := run()
			if o1 != o2 {
				t.Fatalf("same seed measured %d then %d", o1, o2)
			}
			for i := range a1 {
				if a1[i] != a2[i] {
					t.Fatalf("same seed produced different amplitude %d", i)
				}
			}
		})
	}
}
