package circuit

import (
	"math"

	"qusim/internal/gate"
)

// QFT returns the quantum Fourier transform on n qubits (without the final
// bit reversal; callers can use statevec.ReverseBits). Its controlled-phase
// gates are diagonal, making it a useful stress test for the gate
// specialization path.
func QFT(n int) *Circuit {
	c := NewCircuit(n)
	c.Name = "qft"
	for i := n - 1; i >= 0; i-- {
		c.Append(NewH(i))
		for j := i - 1; j >= 0; j-- {
			c.Append(NewCPhase(i, j, math.Pi/float64(int(1)<<uint(i-j))))
		}
	}
	return c
}

// GHZ returns the circuit preparing (|0…0⟩ + |1…1⟩)/√2.
func GHZ(n int) *Circuit {
	c := NewCircuit(n)
	c.Name = "ghz"
	c.Append(NewH(0))
	for q := 1; q < n; q++ {
		c.Append(NewCNOT(q-1, q))
	}
	return c
}

// Grover returns iters iterations of Grover search for the marked basis
// state on n qubits, starting from |0…0⟩ (the circuit includes the initial
// Hadamard layer). The oracle and the zero-reflection are expressed as
// n-qubit diagonal gates, which the simulator's diagonal fast path executes
// in a single sweep.
func Grover(n, marked, iters int) *Circuit {
	c := NewCircuit(n)
	c.Name = "grover"
	all := make([]int, n)
	for q := range all {
		all[q] = q
		c.Append(NewH(q))
	}
	oracle := gate.Identity(n)
	oracle.Set(marked, marked, -1)
	reflect0 := gate.Identity(n)
	reflect0.Set(0, 0, -1)
	for it := 0; it < iters; it++ {
		c.Append(NewDiag(oracle, all...))
		for q := 0; q < n; q++ {
			c.Append(NewH(q))
		}
		c.Append(NewDiag(reflect0, all...))
		for q := 0; q < n; q++ {
			c.Append(NewH(q))
		}
	}
	return c
}
