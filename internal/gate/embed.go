package gate

import (
	"fmt"
	"slices"
)

// Embed lifts a gate matrix u onto a larger k-qubit space. pos[j] gives the
// bit position, within the k-qubit space, of u's gate-local qubit j. The
// remaining k−len(pos) qubits are acted on by the identity. This is the
// permuted Kronecker-product construction of Sec. 2 restricted to a cluster,
// and the building block of gate fusion (Sec. 3.6.1 step 2).
func Embed(u Matrix, pos []int, k int) Matrix {
	if len(pos) != u.K {
		panic(fmt.Sprintf("gate: Embed got %d positions for a %d-qubit gate", len(pos), u.K))
	}
	seen := 0
	for _, p := range pos {
		if p < 0 || p >= k {
			panic(fmt.Sprintf("gate: Embed position %d out of range for k=%d", p, k))
		}
		if seen&(1<<p) != 0 {
			panic(fmt.Sprintf("gate: Embed duplicate position %d", p))
		}
		seen |= 1 << p
	}
	out := New(k)
	d := out.Dim()
	dg := u.Dim()
	// scatter[g] spreads gate-local index g onto the positions in pos.
	scatter := make([]int, dg)
	for g := 0; g < dg; g++ {
		s := 0
		for j := 0; j < u.K; j++ {
			if g&(1<<j) != 0 {
				s |= 1 << pos[j]
			}
		}
		scatter[g] = s
	}
	mask := seen
	for c := 0; c < d; c++ {
		// Gather the gate-input bits of column c.
		gi := 0
		for j := 0; j < u.K; j++ {
			if c&(1<<pos[j]) != 0 {
				gi |= 1 << j
			}
		}
		rest := c &^ mask
		for gout := 0; gout < dg; gout++ {
			v := u.Data[gout*dg+gi]
			if v == 0 {
				continue
			}
			r := rest | scatter[gout]
			out.Data[r*d+c] = v
		}
	}
	return out
}

// Op is one gate of a fusion sequence: the unitary U applied to the qubits
// at the given positions of the cluster space.
type Op struct {
	U   Matrix
	Pos []int
}

// Fuse multiplies a sequence of gates, applied in program order (ops[0]
// first), into a single k-qubit matrix: U = E(ops[m−1])·…·E(ops[0]).
// This turns a cluster of 1- and 2-qubit gates into one k-qubit gate kernel
// invocation, raising operational intensity (Sec. 3.3).
func Fuse(ops []Op, k int) Matrix {
	out := Identity(k)
	for _, op := range ops {
		out = Mul(Embed(op.U, op.Pos, k), out)
	}
	return out
}

// PermuteQubits returns the matrix obtained by relabeling qubit j of m to
// qubit perm[j]. The paper pre-permutes gate matrices so qubit indices are
// always sorted, making state-vector accesses more local (Sec. 3.2); the
// scheduler uses this to normalize cluster matrices.
func PermuteQubits(m Matrix, perm []int) Matrix {
	if len(perm) != m.K {
		panic(fmt.Sprintf("gate: PermuteQubits got %d positions for a %d-qubit gate", len(perm), m.K))
	}
	return Embed(m, perm, m.K)
}

// Sort pre-permutes a gate on the given positions to sorted qubit order
// (Sec. 3.2): it returns the positions ascending and m with gate-local
// qubit j relabeled to the rank of positions[j] — m itself when they were
// ascending already.
func Sort(m Matrix, positions []int) ([]int, Matrix) {
	sorted, perm := sortPositions(positions)
	if perm != nil {
		m = PermuteQubits(m, perm)
	}
	return sorted, m
}

// SortDiagonal is Sort for a gate given by its diagonal entries: entry x
// moves to the index whose bit perm[j] is bit j of x.
func SortDiagonal(d []complex128, positions []int) ([]int, []complex128) {
	sorted, perm := sortPositions(positions)
	if perm == nil {
		return sorted, d
	}
	out := make([]complex128, len(d))
	for x := range d {
		y := 0
		for j, p := range perm {
			y |= (x >> j & 1) << p
		}
		out[y] = d[x]
	}
	return sorted, out
}

// sortPositions returns the positions ascending and, if they were not
// already, the permutation perm with perm[j] = rank of positions[j].
func sortPositions(positions []int) (sorted, perm []int) {
	if slices.IsSorted(positions) {
		return positions, nil
	}
	sorted = slices.Clone(positions)
	slices.Sort(sorted)
	perm = make([]int, len(positions))
	for j, p := range positions {
		perm[j], _ = slices.BinarySearch(sorted, p)
	}
	return sorted, perm
}
