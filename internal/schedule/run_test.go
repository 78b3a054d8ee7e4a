package schedule_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
	"unsafe"

	"qusim/internal/circuit"
	"qusim/internal/gate"
	"qusim/internal/kernels"
	"qusim/internal/schedule"
)

// Blocked runs (exec.go): a run of ops applied block by block must leave
// every amplitude bit for bit where one sweep per op leaves it. The per-op
// side of every comparison here is Shard.Apply, one op at a time — each a
// program of one op, which has no runs — and, for whole vectors, the public
// per-op kernels the benchmark's walkers call.

// blockBitsOf is the block width under test: 1 MiB of amplitudes.
func blockBitsOf[T amp]() int {
	var a T
	if unsafe.Sizeof(a) == 16 {
		return 16
	}
	return 17
}

func randomAmps[T amp](n int, seed int64) []T {
	rng := rand.New(rand.NewSource(seed))
	s := make([]T, 1<<n)
	for i := range s {
		s[i] = T(complex(rng.NormFloat64(), rng.NormFloat64()))
	}
	return s
}

// requireSameBits compares bit patterns (widening a complex64 is exact and
// keeps the sign of a zero).
func requireSameBits[T amp](t *testing.T, what string, got, want []T) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d amplitudes, want %d", what, len(got), len(want))
	}
	for i := range got {
		g, w := complex128(got[i]), complex128(want[i])
		if !sameBits64(g, w) {
			t.Fatalf("%s: amplitude %d is %v blocked, %v op by op", what, i, got[i], want[i])
		}
	}
}

// passes records, through Shard.Observe, how many ops each pass over the
// shard executed.
func passes[T amp](sh *schedule.Shard[T]) *[]int {
	var got []int
	sh.Observe = func(ops []schedule.Op, _ time.Time, took []time.Duration) {
		if len(took) != len(ops) {
			panic("Observe: one duration per op")
		}
		got = append(got, len(ops))
	}
	return &got
}

// stageOps returns the ops of plan's stage 0 before its swap: what one shard
// executes with no exchange.
func stageOps(t *testing.T, plan *schedule.Plan) []schedule.Op {
	t.Helper()
	stages, err := plan.AccessMap()
	if err != nil {
		t.Fatal(err)
	}
	end := stages[0].End
	if stages[0].Exchanges() {
		end = stages[0].Swap
	}
	return plan.Ops[:end]
}

// execBoth runs ops on two copies of state as shard index of a state with
// 2^l-amplitude shards — blocked (one Compile, one Exec) and op by op — and
// returns both results and the blocked side's pass sizes.
func execBoth[T amp](t *testing.T, ops []schedule.Op, state []T, l, index int) (blocked, perOp []T, sizes []int) {
	t.Helper()
	a := schedule.Shard[T]{Amps: slices.Clone(state), L: l, Index: index}
	got := passes(&a)
	prog, err := a.Compile(ops)
	if err != nil {
		t.Fatal(err)
	}
	a.Exec(prog)
	b := schedule.Shard[T]{Amps: slices.Clone(state), L: l, Index: index}
	for i := range ops {
		if err := b.Apply(&ops[i]); err != nil {
			t.Fatal(err)
		}
	}
	return a.Amps, b.Amps, *got
}

func testBlockedMatchesPerOp[T amp](t *testing.T) {
	bb := blockBitsOf[T]()
	for dl := 1; dl <= 4; dl++ {
		l := bb + dl
		// The shard is one of eight of a state three qubits wider, so a
		// diagonal's positions fall below the block, between block and L, and
		// above L; index 5 has set and clear bits up there.
		n := l + 3
		r, c := circuit.GridForQubits(n)
		circuits := map[string]*circuit.Circuit{
			"qft":       circuit.QFT(n),
			"supremacy": circuit.Supremacy(circuit.SupremacyOptions{Rows: r, Cols: c, Depth: 8, Seed: int64(l)}),
			"random":    circuit.RandomCircuit(n, 60, int64(l)),
		}
		state := randomAmps[T](l, int64(100+l))
		for name, circ := range circuits {
			plan, err := schedule.Build(circ, schedule.DefaultOptions(l))
			if err != nil {
				t.Fatal(err)
			}
			ops := stageOps(t, plan)
			for _, index := range []int{0, 5} {
				blocked, perOp, sizes := execBoth(t, ops, state, l, index)
				requireSameBits(t, fmt.Sprintf("%s L=%d index=%d", name, l, index), blocked, perOp)
				if len(sizes) >= len(ops) {
					t.Errorf("%s L=%d: %d ops in %d passes: nothing ran blocked", name, l, len(ops), len(sizes))
				}
			}
		}
	}
}

// TestBlockedRunsMatchPerOp is the property: default plans of three circuit
// families, shards one to four qubits wider than a block, shard index zero
// and not, both precisions.
func TestBlockedRunsMatchPerOp(t *testing.T) {
	t.Run("complex128", testBlockedMatchesPerOp[complex128])
	t.Run("complex64", testBlockedMatchesPerOp[complex64])
}

// TestBlockedRunMatchesPublicKernels holds a blocked whole-vector run to the
// kernels' public per-op entry points, the calls bench's op walkers and
// statevec's gate-by-gate methods make.
func TestBlockedRunMatchesPublicKernels(t *testing.T) {
	const n = 18
	plan, err := schedule.Build(circuit.QFT(n), schedule.DefaultOptions(n))
	if err != nil {
		t.Fatal(err)
	}
	state := randomAmps[complex128](n, 7)
	sh := schedule.Shard[complex128]{Amps: slices.Clone(state), L: n}
	if err := sh.Run(plan, 0); err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(state)
	sh32 := schedule.Shard[complex64]{Amps: kernels.ToComplex64(state), L: n}
	if err := sh32.Run(plan, 0); err != nil {
		t.Fatal(err)
	}
	want32 := kernels.ToComplex64(state)
	for i := range plan.Ops {
		switch op := &plan.Ops[i]; op.Kind {
		case schedule.OpCluster:
			kernels.Apply(want, op.Matrix.Data, op.Positions)
			kernels.Apply(want32, kernels.ToComplex64(op.Matrix.Data), op.Positions)
		case schedule.OpDiagonal:
			kernels.ApplyDiagonal(want, op.Diag, op.Positions)
			kernels.ApplyDiagonalF32(want32, kernels.ToComplex64(op.Diag), op.Positions)
		default:
			t.Fatalf("single-node QFT plan has a %v op", op.Kind)
		}
	}
	requireSameBits(t, "complex128", sh.Amps, want)
	requireSameBits(t, "complex64", sh32.Amps, want32)
}

// TestRunBoundaries builds the op list by hand: what ends a run, what does
// not, and the degenerate diagonals inside one.
func TestRunBoundaries(t *testing.T) {
	const l = 18 // block = 2^16 complex128
	rng := rand.New(rand.NewSource(31))
	cluster := func(qs ...int) schedule.Op {
		return schedule.Op{Kind: schedule.OpCluster, Matrix: gate.RandomUnitary(len(qs), rng), Positions: qs}
	}
	diag := func(qs ...int) schedule.Op {
		return schedule.Op{Kind: schedule.OpDiagonal, Diag: gate.RandomDiagonal(len(qs), rng).Diagonal(), Positions: qs}
	}
	unit := schedule.Op{Kind: schedule.OpDiagonal, Diag: []complex128{1, 1, 1, 1}, Positions: []int{3, 17}}
	phase := schedule.Op{Kind: schedule.OpDiagonal, Diag: []complex128{complex(0.6, 0.8)}} // k = 0
	z := schedule.Op{Kind: schedule.OpDiagonal, Diag: []complex128{1, -1, -1, 1}, Positions: []int{2, 20}}
	perm := rng.Perm(l)
	ops := []schedule.Op{
		diag(0, 5, 9), cluster(1, 15), diag(16, 17, 19), unit, phase, z, // a run of 6
		cluster(4, 16),            // reaches above the block: a pass of its own
		diag(7),                   // a run of one: a pass of its own
		cluster(2, 3, 17),         // above the block again
		diag(1, 12), diag(12, 21), // a run of 2
		{Kind: schedule.OpLocalPerm, Perm: perm},
		cluster(0, 1, 2, 3, 4), cluster(11), diag(0, 1, 2, 3, 18), cluster(0, 3, 6, 9, 12, 15), // a run of 4, the last op on the general-k kernel
		{Kind: schedule.OpLocalPerm, Perm: rng.Perm(l)},
	}
	want := []int{6, 1, 1, 1, 2, 1, 4, 1}
	state := randomAmps[complex128](l, 32)
	for _, index := range []int{0, 6, 13} {
		blocked, perOp, sizes := execBoth(t, ops, state, l, index)
		requireSameBits(t, fmt.Sprintf("index %d", index), blocked, perOp)
		if !slices.Equal(sizes, want) {
			t.Fatalf("index %d: passes of %v ops, want %v", index, sizes, want)
		}
	}
	state32 := randomAmps[complex64](l+1, 33)
	blocked32, perOp32, _ := execBoth(t, ops, state32, l+1, 3)
	requireSameBits(t, "complex64", blocked32, perOp32)

	// Every op of a shard no larger than a block is a pass of its own.
	small := randomAmps[complex128](16, 34)
	low := []schedule.Op{diag(0, 5, 9), cluster(1, 15), diag(3, 17), diag(7)}
	blocked, perOp, sizes := execBoth(t, low, small, 16, 2)
	requireSameBits(t, "one block", blocked, perOp)
	if len(sizes) != len(low) {
		t.Fatalf("one-block shard: %d ops in %d passes, want one pass per op", len(low), len(sizes))
	}
}

// TestStagesNeverShareARun: a run ends with its stage, so a checkpoint or a
// resume at a stage boundary sees the state every op of the earlier stages,
// and none of the later, has been applied to.
func TestStagesNeverShareARun(t *testing.T) {
	const n = 18
	rng := rand.New(rand.NewSource(41))
	var ops []schedule.Op
	for stage := 0; stage < 3; stage++ {
		for i := 0; i < 4; i++ {
			qs := []int{rng.Intn(8), 8 + rng.Intn(10)}
			ops = append(ops, schedule.Op{Kind: schedule.OpDiagonal, Diag: gate.RandomDiagonal(2, rng).Diagonal(), Positions: qs, Stage: stage})
		}
	}
	plan := &schedule.Plan{N: n, L: n, Ops: ops}
	state := randomAmps[complex128](n, 42)
	whole := schedule.Shard[complex128]{Amps: slices.Clone(state), L: n}
	sizes := passes(&whole)
	if err := whole.Run(plan, 0); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(*sizes, []int{4, 4, 4}) {
		t.Fatalf("passes of %v ops, want one run of 4 per stage", *sizes)
	}
	resumed := schedule.Shard[complex128]{Amps: slices.Clone(state), L: n}
	for i := range ops[:4] {
		if err := resumed.Apply(&ops[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := resumed.Run(plan, 1); err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, "resume from stage 1", resumed.Amps, whole.Amps)
}

// TestBenchShapeSweepCounts pins the pass counts DESIGN §12.2 quotes for
// the distributed benchmark shape: QFT(23) at l = 20 executes the 29 ops
// before its swap — its diagonals folded, and no permutation, since the
// outgoing qubits already sit at the top local locations — in 6 passes over
// a rank's shard.
func TestBenchShapeSweepCounts(t *testing.T) {
	// The counts are those of the AVX2 price list's plan, on any kernel set.
	opts := schedule.DefaultOptions(20)
	opts.Costs = schedule.CostTable{Dense: [5]float64{1, 0.99, 1.02, 1.79, 3.03}, Diag: 0.77}
	plan, err := schedule.Build(circuit.QFT(23), opts)
	if err != nil {
		t.Fatal(err)
	}
	ops := stageOps(t, plan)
	sh := schedule.Shard[complex128]{Amps: randomAmps[complex128](20, 1), L: 20, Index: 3}
	got := passes(&sh)
	prog, err := sh.Compile(ops)
	if err != nil {
		t.Fatal(err)
	}
	sh.Exec(prog)
	if want := []int{1, 4, 1, 7, 1, 15}; len(ops) != 29 || !slices.Equal(*got, want) {
		t.Fatalf("%d ops in passes of %v, want 29 in %v", len(ops), *got, want)
	}
}
