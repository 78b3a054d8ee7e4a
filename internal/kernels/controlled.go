package kernels

import (
	"fmt"
	"sort"

	"qusim/internal/par"
)

// ApplyControlled applies the 2^k × 2^k matrix m to the qubits at sorted
// positions qs, conditioned on every control position being 1. Only the
// 2^(n−c) amplitudes whose control bits are set are touched, so a
// controlled gate costs a 2^c-th of the full kernel sweep — the same
// insight behind the CNOT/CZ specializations of Sec. 3.5, generalized to
// arbitrary controlled unitaries.
//
//qusim:hot
func ApplyControlled(amps []complex128, m []complex128, qs []int, controls []int) {
	if len(controls) == 0 {
		Apply(amps, m, qs)
		return
	}
	checkArgs(len(amps), m, qs)
	ctrlMask := 0
	for _, c := range controls {
		if c < 0 || 1<<c >= len(amps) {
			panic(fmt.Sprintf("kernels: control position %d out of range", c))
		}
		if ctrlMask&(1<<c) != 0 {
			panic(fmt.Sprintf("kernels: duplicate control position %d", c))
		}
		ctrlMask |= 1 << c
	}
	for _, q := range qs {
		if ctrlMask&(1<<q) != 0 {
			panic(fmt.Sprintf("kernels: position %d is both target and control", q))
		}
	}
	k := len(qs)
	dk := 1 << k
	// Enumerate bases with zeros at target positions AND at control
	// positions, then OR the control mask in: the iteration space shrinks
	// by 2^c.
	all := make([]int, 0, k+len(controls))
	all = append(all, qs...)
	all = append(all, controls...)
	sort.Ints(all)
	masks := insertMasks(all)
	offs := offsets(qs)
	outer := len(amps) >> uint(len(all))
	par.For(outer, grain(k), func(lo, hi int) {
		tmp := make([]complex128, dk)
		for t := lo; t < hi; t++ {
			base := expand(t, masks) | ctrlMask
			for x := 0; x < dk; x++ {
				tmp[x] = amps[base+offs[x]]
			}
			for r := 0; r < dk; r++ {
				row := m[r*dk : (r+1)*dk]
				var acc complex128
				for c := 0; c < dk; c++ {
					acc += row[c] * tmp[c]
				}
				amps[base+offs[r]] = acc
			}
		}
	})
}

// ApplyControlledPhase multiplies amplitudes whose bits at all the given
// positions are 1 by the phase — the generalized CZ/CPhase/T-family
// diagonal, executed in one conditional sweep.
//
//qusim:hot
func ApplyControlledPhase(amps []complex128, positions []int, phase complex128) {
	mask := 0
	for _, p := range positions {
		mask |= 1 << p
	}
	par.For(len(amps), 4096, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if i&mask == mask {
				amps[i] *= phase
			}
		}
	})
}
