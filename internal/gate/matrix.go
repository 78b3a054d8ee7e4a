// Package gate provides dense unitary matrices acting on small numbers of
// qubits, the standard gate set used by quantum supremacy circuits, and the
// embedding/fusion machinery that merges a sequence of 1- and 2-qubit gates
// into a single k-qubit gate matrix (Sec. 3.6.1, step 2 of Häner & Steiger,
// SC'17).
//
// Conventions: qubit j of a k-qubit matrix corresponds to bit j (the j-th
// least significant bit) of the row/column index. Basis state |b_{k-1}…b_1
// b_0⟩ has index Σ b_j 2^j.
package gate

import (
	"fmt"
	"math/cmplx"
)

// Matrix is a dense, row-major complex matrix acting on K qubits.
// Its dimension is 2^K × 2^K.
type Matrix struct {
	K    int          // number of qubits the matrix acts on
	Data []complex128 // row-major, len = (1<<K) * (1<<K)
}

// New returns a zero matrix on k qubits.
func New(k int) Matrix {
	if k < 0 || k > 30 {
		panic(fmt.Sprintf("gate: invalid qubit count %d", k))
	}
	d := 1 << k
	return Matrix{K: k, Data: make([]complex128, d*d)}
}

// Identity returns the identity matrix on k qubits.
func Identity(k int) Matrix {
	m := New(k)
	d := m.Dim()
	for i := 0; i < d; i++ {
		m.Data[i*d+i] = 1
	}
	return m
}

// FromRows builds a matrix from row slices. All rows must have equal,
// power-of-two length 2^k with 2^k rows.
func FromRows(rows [][]complex128) Matrix {
	d := len(rows)
	k := 0
	for 1<<k < d {
		k++
	}
	if 1<<k != d {
		panic(fmt.Sprintf("gate: dimension %d is not a power of two", d))
	}
	m := New(k)
	for r, row := range rows {
		if len(row) != d {
			panic(fmt.Sprintf("gate: row %d has length %d, want %d", r, len(row), d))
		}
		copy(m.Data[r*d:(r+1)*d], row)
	}
	return m
}

// Dim returns the matrix dimension 2^K.
func (m Matrix) Dim() int { return 1 << m.K }

// Set assigns element (r, c).
func (m Matrix) Set(r, c int, v complex128) { m.Data[r*m.Dim()+c] = v }

// Mul returns the matrix product a·b. Both operands must act on the same
// number of qubits.
func Mul(a, b Matrix) Matrix {
	if a.K != b.K {
		panic(fmt.Sprintf("gate: Mul dimension mismatch: %d vs %d qubits", a.K, b.K))
	}
	d := a.Dim()
	out := New(a.K)
	for r := 0; r < d; r++ {
		arow := a.Data[r*d : (r+1)*d]
		orow := out.Data[r*d : (r+1)*d]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[i*d : (i+1)*d]
			for c, bv := range brow {
				orow[c] += av * bv
			}
		}
	}
	return out
}

// IsDiagonal reports whether all off-diagonal entries are ≤ tol in modulus.
// Diagonal gates are the ones the global-gate specialization of Sec. 3.5 can
// execute on global qubits without communication.
func (m Matrix) IsDiagonal(tol float64) bool {
	d := m.Dim()
	for r := 0; r < d; r++ {
		for c := 0; c < d; c++ {
			if r != c && cmplx.Abs(m.Data[r*d+c]) > tol {
				return false
			}
		}
	}
	return true
}

// Diagonal returns the diagonal entries of m.
func (m Matrix) Diagonal() []complex128 {
	d := m.Dim()
	out := make([]complex128, d)
	for i := 0; i < d; i++ {
		out[i] = m.Data[i*d+i]
	}
	return out
}

// String renders the matrix for debugging.
func (m Matrix) String() string {
	d := m.Dim()
	s := fmt.Sprintf("Matrix(k=%d)[\n", m.K)
	for r := 0; r < d; r++ {
		s += " "
		for c := 0; c < d; c++ {
			v := m.Data[r*d+c]
			s += fmt.Sprintf(" (%6.3f%+6.3fi)", real(v), imag(v))
		}
		s += "\n"
	}
	return s + "]"
}
