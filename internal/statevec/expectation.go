package statevec

import (
	"fmt"
	"math/bits"

	"qusim/internal/par"
)

// Pauli expectation values — the observables of algorithm studies (Sec. 1).

// Pauli identifies a single-qubit Pauli operator.
type Pauli byte

const (
	PauliI Pauli = 'I'
	PauliX Pauli = 'X'
	PauliY Pauli = 'Y'
	PauliZ Pauli = 'Z'
)

// ExpectationZ returns ⟨Z_q⟩ = P(q=0) − P(q=1) without modifying the state.
func (v *State[T]) ExpectationZ(q int) float64 {
	bit := 1 << q
	return par.ReduceFloat64(len(v.Amps), 1<<14, func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			a := complex128(v.Amps[i])
			p := real(a)*real(a) + imag(a)*imag(a)
			if i&bit == 0 {
				s += p
			} else {
				s -= p
			}
		}
		return s
	})
}

// ExpectationPauliString returns ⟨P_0 ⊗ P_1 ⊗ … ⊗ P_{n−1}⟩ for the Pauli
// string given per qubit ('I', 'X', 'Y', 'Z'); ops[q] acts on qubit q.
// Computed as ⟨ψ| P |ψ⟩ in a single sweep: P|ψ⟩ permutes each index by the
// X-mask and attaches a phase from Y/Z factors.
func (v *State[T]) ExpectationPauliString(ops string) (float64, error) {
	if len(ops) != v.N {
		return 0, fmt.Errorf("statevec: Pauli string has %d factors for %d qubits", len(ops), v.N)
	}
	xmask := 0 // bits flipped by X or Y
	ymask := 0
	zmask := 0
	for q := 0; q < v.N; q++ {
		switch Pauli(ops[q]) {
		case PauliI:
		case PauliX:
			xmask |= 1 << q
		case PauliY:
			xmask |= 1 << q
			ymask |= 1 << q
		case PauliZ:
			zmask |= 1 << q
		default:
			return 0, fmt.Errorf("statevec: invalid Pauli %q at qubit %d", ops[q], q)
		}
	}
	amps := v.Amps
	// ⟨ψ|P|ψ⟩ = Σ_i conj(ψ_i)·phase(i)·ψ_{i⊕xmask}. The result of a
	// Hermitian observable is real; we accumulate the real part.
	// Phase bookkeeping: P = ⊗ factors; acting on basis state |j⟩:
	// X|b⟩ = |1−b⟩; Y|b⟩ = i(−1)^b|1−b⟩; Z|b⟩ = (−1)^b|b⟩.
	yCount := bits.OnesCount(uint(ymask))
	re := par.ReduceFloat64(len(amps), 1<<13, func(lo, hi int) float64 {
		var acc float64
		for i := lo; i < hi; i++ {
			j := i ^ xmask
			src := complex128(amps[j])
			// sign from Z factors on bits of i, and from Y factors: Y
			// contributes i·(−1)^{b_q} with b_q the source bit (of j).
			neg := bits.OnesCount(uint(i&zmask)) + bits.OnesCount(uint(j&ymask))
			// Total phase: i^{yCount} · (−1)^{neg}.
			var term complex128
			switch yCount & 3 {
			case 0:
				term = src
			case 1:
				term = src * 1i
			case 2:
				term = -src
			case 3:
				term = src * -1i
			}
			if neg&1 == 1 {
				term = -term
			}
			a := complex128(amps[i])
			acc += real(a)*real(term) + imag(a)*imag(term)
		}
		return acc
	})
	return re, nil
}
