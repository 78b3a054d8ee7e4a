// Package circuit defines the quantum circuit intermediate representation
// used by the scheduler and the simulators, and generators for the circuit
// families evaluated in the paper — most importantly the low-depth random
// quantum supremacy circuits of Boixo et al. reconstructed from the rules in
// Fig. 1 of Häner & Steiger, SC'17.
package circuit

import (
	"fmt"
	"strings"

	"qusim/internal/gate"
)

// Kind identifies a gate type.
type Kind int

const (
	KindH Kind = iota
	KindX
	KindY
	KindZ
	KindS
	KindT
	KindXHalf
	KindYHalf
	KindRz     // Param = θ
	KindPhase  // Param = θ, diag(1, e^{iθ})
	KindCZ     // symmetric
	KindCPhase // Param = θ, diag(1,1,1,e^{iθ})
	KindCNOT   // Qubits[0] = target, Qubits[1] = control
	KindSwap
	KindUnitary // Custom matrix
	KindDiag    // Custom diagonal matrix
)

var kindNames = map[Kind]string{
	KindH: "h", KindX: "x", KindY: "y", KindZ: "z", KindS: "s", KindT: "t",
	KindXHalf: "x_1_2", KindYHalf: "y_1_2", KindRz: "rz", KindPhase: "p",
	KindCZ: "cz", KindCPhase: "cp", KindCNOT: "cnot", KindSwap: "swap",
	KindUnitary: "u", KindDiag: "diag",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Gate is one operation of a circuit. Gate-local qubit j of the matrix acts
// on Qubits[j]; use the constructors below to get the ordering right.
type Gate struct {
	Kind   Kind
	Qubits []int
	Param  float64
	Custom *gate.Matrix // for KindUnitary and KindDiag
	Cycle  int          // clock cycle the generator placed this gate in (metadata)
}

// Constructors ---------------------------------------------------------------

func NewH(q int) Gate     { return Gate{Kind: KindH, Qubits: []int{q}} }
func NewX(q int) Gate     { return Gate{Kind: KindX, Qubits: []int{q}} }
func NewY(q int) Gate     { return Gate{Kind: KindY, Qubits: []int{q}} }
func NewZ(q int) Gate     { return Gate{Kind: KindZ, Qubits: []int{q}} }
func NewS(q int) Gate     { return Gate{Kind: KindS, Qubits: []int{q}} }
func NewT(q int) Gate     { return Gate{Kind: KindT, Qubits: []int{q}} }
func NewXHalf(q int) Gate { return Gate{Kind: KindXHalf, Qubits: []int{q}} }
func NewYHalf(q int) Gate { return Gate{Kind: KindYHalf, Qubits: []int{q}} }

func NewRz(q int, theta float64) Gate { return Gate{Kind: KindRz, Qubits: []int{q}, Param: theta} }
func NewPhase(q int, theta float64) Gate {
	return Gate{Kind: KindPhase, Qubits: []int{q}, Param: theta}
}

// NewCZ returns a controlled-Z between a and b (symmetric).
func NewCZ(a, b int) Gate { return Gate{Kind: KindCZ, Qubits: []int{a, b}} }

// NewCPhase returns a controlled-phase between a and b (symmetric).
func NewCPhase(a, b int, theta float64) Gate {
	return Gate{Kind: KindCPhase, Qubits: []int{a, b}, Param: theta}
}

// NewCNOT returns a CNOT with the given control and target qubits.
func NewCNOT(control, target int) Gate {
	return Gate{Kind: KindCNOT, Qubits: []int{target, control}}
}

// NewSwap returns a SWAP of a and b.
func NewSwap(a, b int) Gate { return Gate{Kind: KindSwap, Qubits: []int{a, b}} }

// NewUnitary wraps an arbitrary unitary on the given qubits.
func NewUnitary(m gate.Matrix, qubits ...int) Gate {
	if m.K != len(qubits) {
		panic(fmt.Sprintf("circuit: %d qubits for %d-qubit unitary", len(qubits), m.K))
	}
	return Gate{Kind: KindUnitary, Qubits: qubits, Custom: &m}
}

// NewDiag wraps an arbitrary diagonal unitary on the given qubits.
func NewDiag(m gate.Matrix, qubits ...int) Gate {
	if m.K != len(qubits) {
		panic(fmt.Sprintf("circuit: %d qubits for %d-qubit diagonal", len(qubits), m.K))
	}
	if !m.IsDiagonal(1e-12) {
		panic("circuit: NewDiag matrix is not diagonal")
	}
	return Gate{Kind: KindDiag, Qubits: qubits, Custom: &m}
}

// Matrix returns the unitary of g, with gate-local qubit j ↔ g.Qubits[j].
func (g Gate) Matrix() gate.Matrix {
	switch g.Kind {
	case KindH:
		return gate.H()
	case KindX:
		return gate.X()
	case KindY:
		return gate.Y()
	case KindZ:
		return gate.Z()
	case KindS:
		return gate.S()
	case KindT:
		return gate.T()
	case KindXHalf:
		return gate.XHalf()
	case KindYHalf:
		return gate.YHalf()
	case KindRz:
		return gate.Rz(g.Param)
	case KindPhase:
		return gate.Phase(g.Param)
	case KindCZ:
		return gate.CZ()
	case KindCPhase:
		return gate.CPhase(g.Param)
	case KindCNOT:
		return gate.CNOT()
	case KindSwap:
		return gate.Swap()
	case KindUnitary, KindDiag:
		return *g.Custom
	}
	panic(fmt.Sprintf("circuit: no matrix for kind %v", g.Kind))
}

// IsDiagonal reports whether g's unitary is diagonal — the property that
// lets gate specialization (Sec. 3.5) run it on global qubits without
// communication.
func (g Gate) IsDiagonal() bool {
	switch g.Kind {
	case KindZ, KindS, KindT, KindRz, KindPhase, KindCZ, KindCPhase, KindDiag:
		return true
	case KindUnitary:
		return g.Custom.IsDiagonal(1e-12)
	}
	return false
}

// K returns the number of qubits g acts on.
func (g Gate) K() int { return len(g.Qubits) }

func (g Gate) String() string {
	qs := make([]string, len(g.Qubits))
	for i, q := range g.Qubits {
		qs[i] = fmt.Sprint(q)
	}
	if g.Kind == KindRz || g.Kind == KindPhase || g.Kind == KindCPhase {
		return fmt.Sprintf("%v(%g) %s", g.Kind, g.Param, strings.Join(qs, " "))
	}
	return fmt.Sprintf("%v %s", g.Kind, strings.Join(qs, " "))
}

// Circuit is an ordered gate list on N qubits.
type Circuit struct {
	N     int
	Gates []Gate
	Name  string
}

// New returns an empty circuit on n qubits.
func NewCircuit(n int) *Circuit { return &Circuit{N: n} }

// Append adds gates in program order, validating qubit indices.
func (c *Circuit) Append(gs ...Gate) {
	for _, g := range gs {
		for _, q := range g.Qubits {
			if q < 0 || q >= c.N {
				panic(fmt.Sprintf("circuit: qubit %d out of range for n=%d in %v", q, c.N, g))
			}
		}
		seen := map[int]bool{}
		for _, q := range g.Qubits {
			if seen[q] {
				panic(fmt.Sprintf("circuit: duplicate qubit in %v", g))
			}
			seen[q] = true
		}
		c.Gates = append(c.Gates, g)
	}
}

// Depth returns the circuit depth: the longest chain of gates sharing
// qubits (each gate depth-1).
func (c *Circuit) Depth() int {
	level := make([]int, c.N)
	max := 0
	for _, g := range c.Gates {
		d := 0
		for _, q := range g.Qubits {
			if level[q] > d {
				d = level[q]
			}
		}
		d++
		for _, q := range g.Qubits {
			level[q] = d
		}
		if d > max {
			max = d
		}
	}
	return max
}

func (c *Circuit) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "circuit %q: n=%d, %d gates\n", c.Name, c.N, len(c.Gates))
	for i, g := range c.Gates {
		fmt.Fprintf(&b, "%4d: %v\n", i, g)
	}
	return b.String()
}
