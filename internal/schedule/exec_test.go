package schedule_test

import (
	"math"
	"math/rand"
	"testing"

	"qusim/internal/circuit"
	"qusim/internal/kernels"
	"qusim/internal/schedule"
	"qusim/internal/statevec"
)

type amp interface{ complex64 | complex128 }

// shardedRun executes plan the way a sharded back end does: the state cut
// into 2^(N−L) shards of 2^L amplitudes, every op applied to each shard by
// schedule.Shard with the shard's index, and the exchange half of a swap
// done here by exchange.
func shardedRun[T amp](t *testing.T, plan *schedule.Plan, state []T) []T {
	t.Helper()
	size := 1 << plan.L
	shards := make([]schedule.Shard[T], len(state)/size)
	for i := range shards {
		shards[i] = schedule.Shard[T]{Amps: append([]T(nil), state[i*size:(i+1)*size]...), L: plan.L, Index: i}
	}
	for i := range plan.Ops {
		op := &plan.Ops[i]
		if op.Kind == schedule.OpSwap {
			exchange(shards, plan.L, op)
			continue
		}
		for s := range shards {
			if err := shards[s].Apply(op); err != nil {
				t.Fatal(err)
			}
		}
	}
	out := make([]T, 0, len(state))
	for i := range shards {
		out = append(out, shards[i].Amps...)
	}
	return out
}

// exchange swaps index bits LocalPos[j] ↔ GlobalPos[j] across the shards by
// moving every amplitude to its new (shard, offset) — the definition of the
// global-to-local swap, with none of the back ends' machinery.
func exchange[T amp](shards []schedule.Shard[T], l int, op *schedule.Op) {
	old := make([][]T, len(shards))
	for s := range shards {
		old[s] = append([]T(nil), shards[s].Amps...)
	}
	for s := range old {
		for t, a := range old[s] {
			i := s<<l | t
			for j := range op.LocalPos {
				lo, hi := op.LocalPos[j], op.GlobalPos[j]
				if i>>lo&1 != i>>hi&1 {
					i ^= 1<<lo | 1<<hi
				}
			}
			shards[i>>l].Amps[i&(1<<l-1)] = a
		}
	}
}

// allKindsPlan schedules a 12-qubit supremacy circuit at L = 8 and adds, in
// stage 0, what the builder never emits: a stand-alone multi-cycle local
// permutation and a lone transposition. The result holds clusters,
// diagonals on local and on global locations, local permutations, and
// swaps.
func allKindsPlan(t *testing.T) *schedule.Plan {
	t.Helper()
	c := circuit.Supremacy(circuit.SupremacyOptions{Rows: 4, Cols: 3, Depth: 16, Seed: 15})
	plan, err := schedule.Build(c, schedule.DefaultOptions(8))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(15))
	extra := []schedule.Op{
		{Kind: schedule.OpLocalPerm, Perm: rng.Perm(plan.L)},
		{Kind: schedule.OpLocalPerm, Perm: []int{0, 5, 2, 3, 4, 1, 6, 7}},
	}
	plan.Ops = append(extra, plan.Ops...)

	var kinds [4]int
	globalDiag := false
	for i := range plan.Ops {
		op := &plan.Ops[i]
		kinds[op.Kind]++
		globalDiag = globalDiag || op.Kind == schedule.OpDiagonal && op.Positions[len(op.Positions)-1] >= plan.L
	}
	for k, n := range kinds {
		if n == 0 {
			t.Fatalf("plan has no %v op", schedule.OpKind(k))
		}
	}
	if !globalDiag {
		t.Fatal("plan lacks a diagonal on a global location")
	}
	return plan
}

func randomState(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	s := make([]complex128, 1<<n)
	for i := range s {
		s[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return s
}

func sameBits64(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) && math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

func sameBits32(a, b complex64) bool {
	return math.Float32bits(real(a)) == math.Float32bits(real(b)) && math.Float32bits(imag(a)) == math.Float32bits(imag(b))
}

// TestShardedExecutionMatchesWholeVector is the applier's contract: the same
// plan applied shard by shard over all 16 shard indices — sub-diagonals
// selected by the index bits, permutations on 2^8 amplitudes at a time — is
// bit for bit what Plan.Run computes on the whole vector in complex128 and
// what f32vec.RunPlan's whole-vector shard computes in complex64.
func TestShardedExecutionMatchesWholeVector(t *testing.T) {
	plan := allKindsPlan(t)
	state := randomState(plan.N, 16)

	whole := statevec.FromAmplitudes(append([]complex128(nil), state...))
	if err := plan.Run(whole); err != nil {
		t.Fatal(err)
	}
	for i, a := range shardedRun(t, plan, state) {
		if !sameBits64(a, whole.Amps[i]) {
			t.Fatalf("complex128: amplitude %d is %v sharded, %v through Plan.Run", i, a, whole.Amps[i])
		}
	}

	// f32vec.RunPlan is Shard.Run on one complex64 shard (its own test holds
	// the two together).
	state32 := kernels.ToComplex64(state)
	single := schedule.Shard[complex64]{Amps: append([]complex64(nil), state32...), L: plan.N}
	if err := single.Run(plan, 0); err != nil {
		t.Fatal(err)
	}
	for i, a := range shardedRun(t, plan, state32) {
		if !sameBits32(a, single.Amps[i]) {
			t.Fatalf("complex64: amplitude %d is %v sharded, %v on the whole vector", i, a, single.Amps[i])
		}
	}
}

// TestPermutationsMoveBothPrecisionsAlike runs a plan of data movement only
// — a multi-cycle permutation, a lone transposition, a permutation before a
// swap and a swap on its own — on values both element types hold exactly:
// the generic permutation and swap kernels must put every amplitude at the same
// index whatever its width.
func TestPermutationsMoveBothPrecisionsAlike(t *testing.T) {
	const n, l = 12, 8
	rng := rand.New(rand.NewSource(17))
	plan := &schedule.Plan{N: n, L: l, Ops: []schedule.Op{
		{Kind: schedule.OpLocalPerm, Perm: rng.Perm(l)},
		{Kind: schedule.OpLocalPerm, Perm: []int{0, 1, 7, 3, 4, 5, 6, 2}},
		{Kind: schedule.OpLocalPerm, Perm: rng.Perm(l)},
		{Kind: schedule.OpSwap, LocalPos: []int{6, 7}, GlobalPos: []int{9, 11}},
		{Kind: schedule.OpSwap, LocalPos: []int{5, 6, 7}, GlobalPos: []int{8, 9, 10}, Stage: 1},
	}}
	wide := schedule.Shard[complex128]{Amps: make([]complex128, 1<<n), L: n}
	narrow := schedule.Shard[complex64]{Amps: make([]complex64, 1<<n), L: n}
	for i := range wide.Amps {
		wide.Amps[i] = complex(float64(i), -float64(i))
		narrow.Amps[i] = complex64(wide.Amps[i])
	}
	sharded := shardedRun(t, plan, narrow.Amps)
	if err := wide.Run(plan, 0); err != nil {
		t.Fatal(err)
	}
	if err := narrow.Run(plan, 0); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i := range wide.Amps {
		if complex128(narrow.Amps[i]) != wide.Amps[i] || sharded[i] != narrow.Amps[i] {
			t.Fatalf("index %d holds %v in complex64 (%v sharded), %v in complex128", i, narrow.Amps[i], sharded[i], wide.Amps[i])
		}
		if real(wide.Amps[i]) != float64(i) {
			moved++
		}
	}
	if moved < 1<<(n-1) {
		t.Fatalf("only %d of %d amplitudes moved: the plan tested nothing", moved, 1<<n)
	}
}

func TestApplyRejectsUnknownKind(t *testing.T) {
	sh := schedule.Shard[complex128]{Amps: make([]complex128, 4), L: 2}
	if err := sh.Apply(&schedule.Op{Kind: schedule.OpKind(99)}); err == nil {
		t.Fatal("unknown op kind accepted")
	}
}
