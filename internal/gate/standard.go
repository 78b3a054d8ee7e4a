package gate

import (
	"math"
	"math/cmplx"
	"math/rand"
)

// Standard single- and two-qubit gates of the quantum supremacy circuits
// (Sec. 2 of the paper) plus the usual extras needed by the example
// algorithms (QFT, Grover).

var (
	invSqrt2 = complex(1/math.Sqrt2, 0)
)

// H returns the Hadamard gate 1/√2 [[1,1],[1,-1]].
func H() Matrix {
	return FromRows([][]complex128{
		{invSqrt2, invSqrt2},
		{invSqrt2, -invSqrt2},
	})
}

// X returns the bit-flip (NOT) gate.
func X() Matrix {
	return FromRows([][]complex128{
		{0, 1},
		{1, 0},
	})
}

// Y returns the Pauli-Y gate.
func Y() Matrix {
	return FromRows([][]complex128{
		{0, -1i},
		{1i, 0},
	})
}

// Z returns the Pauli-Z gate.
func Z() Matrix {
	return FromRows([][]complex128{
		{1, 0},
		{0, -1},
	})
}

// S returns the phase gate diag(1, i).
func S() Matrix {
	return FromRows([][]complex128{
		{1, 0},
		{0, 1i},
	})
}

// T returns the T gate diag(1, e^{iπ/4}).
func T() Matrix {
	return FromRows([][]complex128{
		{1, 0},
		{0, cmplx.Exp(1i * math.Pi / 4)},
	})
}

// XHalf returns X^{1/2} = 1/2 [[1+i, 1−i], [1−i, 1+i]].
func XHalf() Matrix {
	return FromRows([][]complex128{
		{complex(0.5, 0.5), complex(0.5, -0.5)},
		{complex(0.5, -0.5), complex(0.5, 0.5)},
	})
}

// YHalf returns Y^{1/2} = 1/2 [[1+i, −1−i], [1+i, 1+i]].
func YHalf() Matrix {
	return FromRows([][]complex128{
		{complex(0.5, 0.5), complex(-0.5, -0.5)},
		{complex(0.5, 0.5), complex(0.5, 0.5)},
	})
}

// Rx returns the rotation exp(−iθX/2).
func Rx(theta float64) Matrix {
	c := complex(math.Cos(theta/2), 0)
	s := complex(0, -math.Sin(theta/2))
	return FromRows([][]complex128{
		{c, s},
		{s, c},
	})
}

// Ry returns the rotation exp(−iθY/2).
func Ry(theta float64) Matrix {
	c := complex(math.Cos(theta/2), 0)
	s := complex(math.Sin(theta/2), 0)
	return FromRows([][]complex128{
		{c, -s},
		{s, c},
	})
}

// Rz returns the rotation diag(e^{−iθ/2}, e^{iθ/2}).
func Rz(theta float64) Matrix {
	return FromRows([][]complex128{
		{cmplx.Exp(complex(0, -theta/2)), 0},
		{0, cmplx.Exp(complex(0, theta/2))},
	})
}

// Phase returns the phase gate diag(1, e^{iθ}).
func Phase(theta float64) Matrix {
	return FromRows([][]complex128{
		{1, 0},
		{0, cmplx.Exp(complex(0, theta))},
	})
}

// CZ returns the controlled-Z gate diag(1,1,1,−1). It is symmetric in its
// qubits, as noted in Sec. 2.
func CZ() Matrix {
	m := Identity(2)
	m.Set(3, 3, -1)
	return m
}

// CPhase returns the controlled-phase gate diag(1,1,1,e^{iθ}); used by QFT.
func CPhase(theta float64) Matrix {
	m := Identity(2)
	m.Set(3, 3, cmplx.Exp(complex(0, theta)))
	return m
}

// CNOT returns the controlled-NOT gate with gate-local qubit 0 the target
// and gate-local qubit 1 the control: basis |c t⟩ with index 2c + t.
func CNOT() Matrix {
	return FromRows([][]complex128{
		{1, 0, 0, 0},
		{0, 1, 0, 0},
		{0, 0, 0, 1},
		{0, 0, 1, 0},
	})
}

// Swap returns the two-qubit SWAP gate.
func Swap() Matrix {
	return FromRows([][]complex128{
		{1, 0, 0, 0},
		{0, 0, 1, 0},
		{0, 1, 0, 0},
		{0, 0, 0, 1},
	})
}

// RandomUnitary returns a Haar-ish random unitary on k qubits, produced by
// Gram–Schmidt orthonormalization of a complex Gaussian matrix. It is used
// by property-based tests and by the dense-gate worst-case scheduling mode.
func RandomUnitary(k int, rng *rand.Rand) Matrix {
	d := 1 << k
	m := New(k)
	for i := range m.Data {
		m.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	// Modified Gram–Schmidt over rows.
	for r := 0; r < d; r++ {
		row := m.Data[r*d : (r+1)*d]
		for p := 0; p < r; p++ {
			prev := m.Data[p*d : (p+1)*d]
			var dot complex128
			for i := range row {
				dot += cmplx.Conj(prev[i]) * row[i]
			}
			for i := range row {
				row[i] -= dot * prev[i]
			}
		}
		var norm float64
		for _, v := range row {
			norm += real(v)*real(v) + imag(v)*imag(v)
		}
		inv := complex(1/math.Sqrt(norm), 0)
		for i := range row {
			row[i] *= inv
		}
	}
	return m
}

// RandomDiagonal returns a random diagonal unitary on k qubits.
//
//qlint:ignore deadcode a test fixture of five packages, the diagonal twin of RandomUnitary
func RandomDiagonal(k int, rng *rand.Rand) Matrix {
	m := New(k)
	d := m.Dim()
	for i := 0; i < d; i++ {
		m.Data[i*d+i] = cmplx.Exp(complex(0, rng.Float64()*2*math.Pi))
	}
	return m
}
