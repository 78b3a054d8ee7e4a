// Package hotalloc is the analysistest corpus for the hotalloc analyzer:
// allocation and boxing inside the loops of //qusim:hot functions.
package hotalloc

import "qusim/internal/par"

// emit is a named sink with an interface parameter, for the boxing case.
func emit(v any) {}

// makeInLoop allocates a fresh buffer every iteration.
//
//qusim:hot
func makeInLoop(xs []int) int {
	total := 0
	for _, x := range xs {
		buf := make([]int, 1) // want `hotalloc: make inside a //qusim:hot loop \(makeInLoop\) allocates per iteration`
		buf[0] = x
		total += buf[0]
	}
	return total
}

// compositeAppend grows a slice of structs: both the append and the
// literal are per-iteration allocations.
//
//qusim:hot
func compositeAppend(xs []int) []pair {
	out := make([]pair, 0, len(xs)) // prologue: outside every loop, allowed
	for _, x := range xs {
		out = append(out, pair{x, x}) // want `hotalloc: append inside a //qusim:hot loop \(compositeAppend\)` `hotalloc: composite literal allocates inside a //qusim:hot loop \(compositeAppend\)`
	}
	return out
}

type pair struct{ a, b int }

// boxesArg passes a concrete int where emit expects an interface: one box
// per iteration.
//
//qusim:hot
func boxesArg(xs []int) {
	for _, x := range xs {
		emit(x) // want `hotalloc: passing int to interface parameter of emit boxes inside a //qusim:hot loop \(boxesArg\)`
	}
}

// closureInLoop allocates a closure per iteration.
//
//qusim:hot
func closureInLoop(xs []int) []func() int {
	fns := make([]func() int, 0, len(xs))
	for i := range xs {
		fns = append(fns, func() int { return xs[i] }) // want `hotalloc: append inside a //qusim:hot loop \(closureInLoop\)` `hotalloc: function literal allocates a closure inside a //qusim:hot loop \(closureInLoop\)`
	}
	return fns
}

// stringConversion copies the byte slice into a string every iteration.
//
//qusim:hot
func stringConversion(words [][]byte) int {
	n := 0
	for _, w := range words {
		n += len(string(w)) // want `hotalloc: conversion to string copies inside a //qusim:hot loop \(stringConversion\)`
	}
	return n
}

// workerLoops mirrors the real kernels: the sweep loop lives inside a
// par.For worker closure, and the analyzer must follow it there. The
// worker's own prologue allocation is outside every loop and allowed.
//
//qusim:hot
func workerLoops(amps []float64) {
	par.For(len(amps), 1024, func(lo, hi int) {
		scratch := make([]float64, 4) // worker prologue: once per worker, allowed
		for i := lo; i < hi; i++ {
			tmp := append(scratch[:0], amps[i]) // want `hotalloc: append inside a //qusim:hot loop \(workerLoops\)`
			amps[i] = tmp[0]
		}
	})
}

// coldLoops allocates freely: no //qusim:hot marker, no findings.
func coldLoops(xs []int) []int {
	var out []int
	for _, x := range xs {
		out = append(out, x)
	}
	return out
}

// panicPath may build its message in the loop: a panicking iteration is
// not steady state, so the fmt-style boxing under panic is exempt.
//
//qusim:hot
func panicPath(xs []int) int {
	total := 0
	for i, x := range xs {
		if x < 0 {
			panic(errorAt(i, x))
		}
		total += x
	}
	return total
}

// errorAt boxes its operands — but only on the panic path above.
func errorAt(i, x any) string { return "negative amplitude count" }

// suppressedFunc exercises the function-scoped suppression path together
// with the hot marker.
//
//qusim:hot
//qlint:ignore hotalloc fixture: the append is O(bit positions) setup, not the amplitude sweep
func suppressedFunc(xs []int) []int {
	var out []int
	for _, x := range xs {
		out = append(out, x)
	}
	return out
}

// growBuf hides an allocation behind a helper: the append runs once per
// iteration of any loop that calls it, no matter whose body it sits in.
func growBuf(dst []int, x int) []int {
	return append(dst, x)
}

// scaleInPlace is a clean leaf: arithmetic only, nothing to hoist.
func scaleInPlace(xs []int, k int) {
	for i := range xs {
		xs[i] *= k
	}
}

// hiddenAllocViaHelper pins the single-level inlining step: the loop
// itself is allocation-free, but the helper it calls is not.
//
//qusim:hot
func hiddenAllocViaHelper(xs []int) []int {
	var out []int
	for _, x := range xs {
		out = growBuf(out, x) // want `hotalloc: call to growBuf allocates per iteration inside a //qusim:hot loop \(hiddenAllocViaHelper\): append at line \d+`
		scaleInPlace(out, 2)
	}
	return out
}

// amp is a type set of concrete types only, like the kernels' complexAmp.
type amp interface{ complex64 | complex128 }

// widenStore computes in complex128 and stores through a conversion to the
// type parameter: C is complex64 or complex128 in every instantiation, so
// neither the conversion nor the argument boxes.
//
//qusim:hot
func widenStore[C amp](amps []C, s complex128) {
	for i := range amps {
		amps[i] = C(s * complex128(amps[i]))
		sink(amps[i])
	}
}

// sink takes a value of a concrete type parameter.
func sink[C amp](v C) {}

// anyConversion still boxes: any holds interface types.
//
//qusim:hot
func anyConversion(xs []int, out []any) {
	for i, x := range xs {
		out[i] = any(x) // want `hotalloc: conversion to interface any boxes inside a //qusim:hot loop \(anyConversion\)`
	}
}
