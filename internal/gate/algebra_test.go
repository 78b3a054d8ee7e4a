package gate

import "math/cmplx"

// At returns element (r, c).
func (m Matrix) At(r, c int) complex128 { return m.Data[r*m.Dim()+c] }

// Kron returns the Kronecker product a⊗b: a acts on the high-order qubits,
// b on the low-order qubits, matching the 1⊗…⊗U⊗…⊗1 construction of Sec. 2.
func Kron(a, b Matrix) Matrix {
	out := New(a.K + b.K)
	da, db, d := a.Dim(), b.Dim(), out.Dim()
	for ra := 0; ra < da; ra++ {
		for ca := 0; ca < da; ca++ {
			av := a.Data[ra*da+ca]
			if av == 0 {
				continue
			}
			for rb := 0; rb < db; rb++ {
				for cb := 0; cb < db; cb++ {
					out.Data[(ra*db+rb)*d+(ca*db+cb)] = av * b.Data[rb*db+cb]
				}
			}
		}
	}
	return out
}

// Dagger returns the conjugate transpose of m.
func (m Matrix) Dagger() Matrix {
	d := m.Dim()
	out := New(m.K)
	for r := 0; r < d; r++ {
		for c := 0; c < d; c++ {
			out.Data[c*d+r] = cmplx.Conj(m.Data[r*d+c])
		}
	}
	return out
}

// IsUnitary reports whether m†m = 1 to within tol (max-norm of the residual).
func (m Matrix) IsUnitary(tol float64) bool {
	return ApproxEqual(Mul(m.Dagger(), m), Identity(m.K), tol)
}

// ApproxEqual reports whether a and b agree element-wise to within tol.
func ApproxEqual(a, b Matrix, tol float64) bool {
	if a.K != b.K {
		return false
	}
	for i := range a.Data {
		if cmplx.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// EqualUpToGlobalPhase reports whether a = e^{iφ}·b for some φ, to within
// tol: φ is the phase of ⟨b, a⟩, which is e^{iφ}‖b‖² when a = e^{iφ}·b.
func EqualUpToGlobalPhase(a, b Matrix, tol float64) bool {
	if a.K != b.K {
		return false
	}
	var ip complex128
	for i := range b.Data {
		ip += cmplx.Conj(b.Data[i]) * a.Data[i]
	}
	phased := New(b.K)
	for i, x := range b.Data {
		phased.Data[i] = x
		if ip != 0 {
			phased.Data[i] *= ip / complex(cmplx.Abs(ip), 0)
		}
	}
	return ApproxEqual(a, phased, tol)
}
