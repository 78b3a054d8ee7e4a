package qusim

// One testing.B benchmark per table and figure of the paper's evaluation
// (Sec. 4). Each benchmark exercises the code path that regenerates the
// corresponding result; `go run ./cmd/experiments all` prints the full
// paper-vs-reproduced tables.

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"runtime/debug"
	"testing"
	"unsafe"

	"qusim/internal/circuit"
	"qusim/internal/ckpt"
	"qusim/internal/dist"
	"qusim/internal/emulate"
	"qusim/internal/f32vec"
	"qusim/internal/gate"
	"qusim/internal/harness/refkernel"
	"qusim/internal/kernels"
	"qusim/internal/oocvec"
	"qusim/internal/par"
	"qusim/internal/perfmodel"
	"qusim/internal/schedule"
	"qusim/internal/statevec"
	"qusim/internal/telemetry"
)

const benchState = 20 // 2^20 amplitudes = 16 MiB

func benchSupremacy(n, depth int) *circuit.Circuit {
	r, c := circuit.GridForQubits(n)
	return circuit.Supremacy(circuit.SupremacyOptions{
		Rows: r, Cols: c, Depth: depth, Seed: 0, SkipInitialH: true,
	})
}

// BenchmarkFig2KernelSteps measures the optimization-step progression of
// Fig. 2: the same 4-qubit gate through the naive and in-place reference
// kernels, the general-k split kernel, and the kernel this machine runs.
func BenchmarkFig2KernelSteps(b *testing.B) {
	u := gate.RandomUnitary(4, randRNG(1))
	qs := []int{0, 1, 2, 3}
	src, dst := make([]complex128, 1<<benchState), make([]complex128, 1<<benchState)
	src[0] = 1
	split := kernels.PrepareGeneral(u.Data, qs, len(src))
	for _, step := range []struct {
		name string
		pass func()
	}{
		{"naive", func() { refkernel.Naive(dst, src, u.Data, qs); src, dst = dst, src }},
		{"inplace", func() { refkernel.InPlace(src, u.Data, qs) }},
		{"split", func() { split.Sweep(src) }},
		{kernels.ISA(), func() { kernels.Apply(src, u.Data, qs) }},
	} {
		b.Run(step.name, func(b *testing.B) {
			b.SetBytes(int64(len(src) * 16 * 2))
			for i := 0; i < b.N; i++ {
				step.pass()
			}
			b.ReportMetric(perfmodel.KernelFlops(benchState, 4)/1e9/b.Elapsed().Seconds()*float64(b.N), "GFLOPS")
		})
	}
}

// BenchmarkFig5aScheduling times the scheduler across circuit depths — the
// pre-computation the paper reports terminates in 1–3 s on a laptop.
func BenchmarkFig5aScheduling(b *testing.B) {
	for _, depth := range []int{10, 25, 50} {
		c := benchSupremacy(42, depth)
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := schedule.Build(c, schedule.DefaultOptions(30)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig5bScheduling sweeps qubit counts at depth 25.
func BenchmarkFig5bScheduling(b *testing.B) {
	for _, n := range []int{30, 36, 42, 45, 49} {
		c := benchSupremacy(n, 25)
		b.Run(fmt.Sprintf("qubits%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := schedule.Build(c, schedule.DefaultOptions(30)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6HighLowOrder measures every kernel size on low- vs
// high-order qubits (the cache-associativity contrast of Fig. 6/9).
func BenchmarkFig6HighLowOrder(b *testing.B) {
	for k := 1; k <= 5; k++ {
		u := gate.RandomUnitary(k, randRNG(int64(k)))
		for _, order := range []string{"low", "high"} {
			qs := make([]int, k)
			for i := range qs {
				if order == "low" {
					qs[i] = i
				} else {
					qs[i] = benchState - k + i
				}
			}
			b.Run(fmt.Sprintf("k%d/%s", k, order), func(b *testing.B) {
				amps := make([]complex128, 1<<benchState)
				amps[0] = 1
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					kernels.Apply(amps, u.Data, qs)
				}
				b.ReportMetric(perfmodel.KernelFlops(benchState, k)/1e9/b.Elapsed().Seconds()*float64(b.N), "GFLOPS")
			})
		}
	}
}

// BenchmarkFig7Scaling measures kernel throughput as the worker count
// doubles (Fig. 7/10 strong scaling).
func BenchmarkFig7Scaling(b *testing.B) {
	u := gate.RandomUnitary(4, randRNG(4))
	qs := []int{0, 1, 2, 3}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			old := par.SetWorkers(workers)
			b.Cleanup(func() { par.SetWorkers(old) })
			amps := make([]complex128, 1<<benchState)
			amps[0] = 1
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kernels.Apply(amps, u.Data, qs)
			}
		})
	}
}

// BenchmarkFig8MultiNode runs a scaled-down distributed simulation across
// simulated MPI ranks (Fig. 8).
func BenchmarkFig8MultiNode(b *testing.B) {
	for _, ranks := range []int{2, 4, 8} {
		c := benchSupremacy(16, 25)
		g := 0
		for 1<<g < ranks {
			g++
		}
		plan, err := schedule.Build(c, schedule.DefaultOptions(16-g))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("ranks%d", ranks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := dist.Run(plan, dist.Options{Ranks: ranks, Init: dist.InitUniform}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig9EdisonKernels is the Edison variant of Fig. 6: kernels on a
// state sized to stress the last-level cache.
func BenchmarkFig9EdisonKernels(b *testing.B) {
	for _, k := range []int{3, 4, 5} {
		u := gate.RandomUnitary(k, randRNG(int64(90+k)))
		qs := make([]int, k)
		for i := range qs {
			qs[i] = benchState - k + i
		}
		b.Run(fmt.Sprintf("k%d-highorder", k), func(b *testing.B) {
			amps := make([]complex128, 1<<benchState)
			amps[0] = 1
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kernels.Apply(amps, u.Data, qs)
			}
		})
	}
}

// BenchmarkFig10SingleWorker is the Edison strong-scaling anchor point: the
// full single-worker sweep a 1-qubit gate needs.
func BenchmarkFig10SingleWorker(b *testing.B) {
	u := gate.H()
	old := par.SetWorkers(1)
	b.Cleanup(func() { par.SetWorkers(old) })
	amps := make([]complex128, 1<<benchState)
	amps[0] = 1
	b.SetBytes(int64(len(amps) * 32))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.Apply(amps, u.Data, []int{0})
	}
}

// BenchmarkTable1Clustering times cluster building for each kmax.
func BenchmarkTable1Clustering(b *testing.B) {
	c := benchSupremacy(30, 25)
	for _, kmax := range []int{3, 4, 5} {
		b.Run(fmt.Sprintf("kmax%d", kmax), func(b *testing.B) {
			opts := schedule.DefaultOptions(30)
			opts.KMax = kmax
			for i := 0; i < b.N; i++ {
				if _, err := schedule.Build(c, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable2FullRuns runs the scaled-down Table 2 comparison: the
// scheduled simulator vs the per-gate scheme, end to end.
func BenchmarkTable2FullRuns(b *testing.B) {
	c := benchSupremacy(16, 25)
	plan, err := schedule.Build(c, schedule.DefaultOptions(13))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("scheduled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dist.Run(plan, dist.Options{Ranks: 8, Init: dist.InitUniform}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dist.RunBaseline(c, dist.BaselineOptions{Ranks: 8, Init: dist.InitUniform}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationSpecialization compares scheduling with and without
// gate specialization (Sec. 3.5 ablation).
func BenchmarkAblationSpecialization(b *testing.B) {
	c := benchSupremacy(36, 25)
	for _, spec := range []bool{true, false} {
		b.Run(fmt.Sprintf("specialize=%v", spec), func(b *testing.B) {
			opts := schedule.DefaultOptions(30)
			opts.SpecializeDiagonal2Q = spec
			for i := 0; i < b.N; i++ {
				if _, err := schedule.Build(c, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationFusion compares single-node execution with and without
// gate fusion (the Sec. 3.3 motivation for k-qubit kernels).
func BenchmarkAblationFusion(b *testing.B) {
	c := benchSupremacy(benchState, 25)
	for _, fusion := range []bool{true, false} {
		opts := schedule.DefaultOptions(benchState)
		opts.Clustering = fusion
		plan, err := schedule.Build(c, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("fusion=%v", fusion), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v := statevec.NewUniform(benchState)
				if err := plan.Run(v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDiagonalFastPath measures the specialized diagonal sweep
// against the dense 2-qubit kernel applying the same CZ.
func BenchmarkAblationDiagonalFastPath(b *testing.B) {
	b.Run("diagonal", func(b *testing.B) {
		v := statevec.NewUniform(benchState)
		for i := 0; i < b.N; i++ {
			v.ApplyDiagonal([]complex128{1, 1, 1, -1}, 3, 11)
		}
	})
	b.Run("dense", func(b *testing.B) {
		v := statevec.NewUniform(benchState)
		cz := gate.CZ()
		for i := 0; i < b.N; i++ {
			v.ApplyDense(cz, 3, 11)
		}
	})
}

// BenchmarkPermute compares local qubit permutation as a SwapBits
// transposition chain (the pre-optimization implementation, one half-state
// sweep per transposition) against the in-place kernel: the permutation's two
// involutions, one pair-swap pass each, in the state's own memory. The
// "state-passes" metric reports the memory traffic in reads plus writes of the
// whole state: the chain moves half the amplitudes per transposition, a
// pair-swap pass every amplitude that is not its own partner. n16 is one
// chunk of a paged state (oocvec at -ooc-chunk 16), which its stage's
// permutation visits once per chunk.
func BenchmarkPermute(b *testing.B) {
	for _, n := range []int{16, benchState, 24} {
		perm := randRNG(int64(n)).Perm(n)
		b.Run(fmt.Sprintf("n%d/swapchain", n), func(b *testing.B) {
			v := statevec.NewUniform(n)
			b.SetBytes(int64(16 << n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v.PermuteBitsSwapChain(perm)
			}
			b.ReportMetric(float64(swapChainSteps(perm)), "state-passes")
		})
		b.Run(fmt.Sprintf("n%d/inplace", n), func(b *testing.B) {
			v := statevec.NewUniform(n)
			b.SetBytes(int64(16 << n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v.PermuteBits(perm)
			}
			b.ReportMetric(inPlacePasses(perm), "state-passes")
		})
	}
}

// inPlacePasses is the share of the state the in-place kernel reads and
// writes for perm, summed over its two passes and doubled: an involution of k
// position pairs leaves 2^−k of the amplitudes where they are.
func inPlacePasses(perm []int) float64 {
	first, second := kernels.CompileBitPermutation(perm).Involutions()
	var passes float64
	for _, inv := range [][]int{first, second} {
		moved := 0
		for p, q := range inv {
			if p != q {
				moved++
			}
		}
		passes += 2 * (1 - math.Pow(2, -float64(moved/2)))
	}
	return passes
}

// swapChainSteps counts the SwapBits sweeps PermuteBitsSwapChain issues for
// perm — each one touches half the amplitudes twice, i.e. one full-state
// pass of memory traffic.
func swapChainSteps(perm []int) int {
	n := len(perm)
	cur := make([]int, n)
	loc := make([]int, n)
	for i := range cur {
		cur[i] = i
		loc[i] = i
	}
	steps := 0
	for p := 0; p < n; p++ {
		want, have := perm[p], cur[p]
		if have == want {
			continue
		}
		steps++
		other := loc[want]
		cur[p], cur[other] = want, have
		loc[have], loc[want] = other, p
	}
	return steps
}

// BenchmarkCheckpoint records the checkpoint subsystem's cost baseline
// (BENCH_ckpt.json via make bench-ckpt): single-shard snapshot commit and
// verified restore throughput for a 16 MiB state, and the end-to-end
// overhead per-stage snapshots add to a distributed supremacy run — the
// plain/checkpointed pair yields the recorded slowdown factor. The ooc pair
// is the same for the paged back end (20 qubits in 64 chunks, prefetch 4, a
// snapshot at every stage boundary, teed from the next stage's reader):
// RunCheckpointed − Run, what ROADMAP item 8 wants gone.
func BenchmarkCheckpoint(b *testing.B) {
	const n = benchState
	state := statevec.NewUniform(n)
	meta := ckpt.Meta{PlanHash: "bench", N: n, L: n, Ranks: 1}
	// save commits the whole state as the one shard of a snapshot.
	save := func(dir string) error {
		snap := ckpt.NewWriter(&ckpt.Policy{Dir: dir}, meta, nil).Snapshot(meta.NextStage)
		if err := snap.Tee(0, kernels.AmpBytes(state.Amps)); err != nil {
			return err
		}
		return snap.Commit()
	}

	b.Run("shard/write", func(b *testing.B) {
		dir := b.TempDir()
		b.SetBytes(int64(16 << n))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := save(dir); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("shard/restore", func(b *testing.B) {
		dir := b.TempDir()
		if err := save(dir); err != nil {
			b.Fatal(err)
		}
		man, err := ckpt.FindRestorable(dir, meta)
		if err != nil || man == nil {
			b.Fatal(man, err)
		}
		dst := make([]complex128, 1<<n)
		b.SetBytes(int64(16 << n))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := readShard(dir, man, 0, dst); err != nil {
				b.Fatal(err)
			}
		}
	})

	c := benchSupremacy(n, 25)
	plan, err := schedule.Build(c, schedule.DefaultOptions(n-3))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("dist/plain", func(b *testing.B) {
		b.SetBytes(int64(16 << n))
		for i := 0; i < b.N; i++ {
			if _, err := dist.Run(plan, dist.Options{Ranks: 8, Init: dist.InitUniform}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dist/checkpointed", func(b *testing.B) {
		b.SetBytes(int64(16 << n))
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dir := b.TempDir() // fresh dir so every run commits, none resumes
			b.StartTimer()
			if _, err := dist.Run(plan, dist.Options{
				Ranks: 8, Init: dist.InitUniform,
				Checkpoint: &ckpt.Policy{Dir: dir},
			}); err != nil {
				b.Fatal(err)
			}
		}
	})

	const oocChunk, oocPrefetch = n - 6, 4
	oocPlan, err := schedule.Build(benchSupremacy(n, 16), schedule.DefaultOptions(oocChunk))
	if err != nil {
		b.Fatal(err)
	}
	ooc := func(b *testing.B, run func(v *oocvec.Vector) error) {
		v, err := oocvec.NewUniform(n, oocChunk, b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		defer v.Close()
		v.SetPrefetch(oocPrefetch)
		b.SetBytes(int64(16 << n))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := run(v); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("ooc/plain", func(b *testing.B) {
		ooc(b, func(v *oocvec.Vector) error { return v.Run(oocPlan) })
	})
	b.Run("ooc/checkpointed", func(b *testing.B) {
		ooc(b, func(v *oocvec.Vector) error {
			b.StopTimer()
			dir := b.TempDir() // fresh dir so every run commits every boundary
			b.StartTimer()
			_, _, err := v.RunCheckpointed(oocPlan, &ckpt.Policy{Dir: dir}, false)
			return err
		})
	})
}

// BenchmarkTelemetryOverhead records the telemetry cost baseline
// (BENCH_telemetry.json via make bench-telemetry): the same distributed
// 20-qubit supremacy run with telemetry disabled (the nil-check no-op path
// every production run pays) and fully armed (spans + metrics across dist,
// mpi, par and ckpt). The disabled path must stay within 2% of the
// pre-instrumentation cost; the recorded enabled/disabled pair documents
// both numbers.
func BenchmarkTelemetryOverhead(b *testing.B) {
	const n = benchState
	c := benchSupremacy(n, 25)
	plan, err := schedule.Build(c, schedule.DefaultOptions(n-2))
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, tel *telemetry.Telemetry) {
		if _, err := dist.Run(plan, dist.Options{
			Ranks: 4, Init: dist.InitUniform, Telemetry: tel,
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("disabled", func(b *testing.B) {
		b.SetBytes(int64(16 << n))
		for i := 0; i < b.N; i++ {
			run(b, telemetry.Disabled)
		}
	})
	b.Run("enabled", func(b *testing.B) {
		b.Cleanup(func() { par.SetTelemetry(telemetry.Disabled) })
		b.SetBytes(int64(16 << n))
		for i := 0; i < b.N; i++ {
			tel := telemetry.New()
			par.SetTelemetry(tel)
			run(b, tel)
		}
	})
}

func randRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// precState sizes the precision benchmarks: 2^26 amplitudes = 1 GiB in
// complex128, far beyond the last-level cache, so the halved memory
// traffic of the single-precision path is visible the way Sec. 5 predicts
// rather than hidden by cache residency.
const precState = 26

// BenchmarkKernelPrecision records the kernel baseline
// (BENCH_kernels.json via make bench-kernels): the same k-qubit random
// unitary at the same qubit positions through the double- and
// single-precision kernels every caller gets (kernels.Apply), on buffers
// from kernels.NewAmps (2 MiB pages where the host grants them, as in every
// run), under the name of the kernel set that ran — "avx512" or "avx2" for
// the assembly kernels (-tags noavx512 runs the latter on an AVX-512 host),
// "go" for the pure-Go ones (-tags purego, or a CPU without AVX2). The
// avx512/avx2 rows of one leaf yield the recorded width speedups, the f32/f64
// leaf pairs yield the recorded speedups; bytes/op counts one read + one
// write of the state at the respective element width, so MB/s compares
// traffic, not progress. The diag pair is the diagonal sweep with no unit
// entry to skip. Each set's f64 rows over its k1/f64 are the price list
// schedule.MeasuredCosts compiles in for that set. The matrices are
// unitary and the state normalized, so repeated application keeps every
// amplitude out of the denormal range.
func BenchmarkKernelPrecision(b *testing.B) {
	set := kernels.ISA()
	for k := 1; k <= 5; k++ {
		u := gate.RandomUnitary(k, randRNG(int64(40+k)))
		// Mid-register positions: strands of ≥ 2^6 amplitudes, so the pair
		// measures the steady-state sweep rather than per-block setup.
		qs := make([]int, k)
		for i := range qs {
			qs[i] = 6 + 3*i
		}
		u32 := kernels.ToComplex64(u.Data)
		b.Run(fmt.Sprintf("%s/k%d/f64", set, k), func(b *testing.B) {
			amps := kernels.NewAmps[complex128](1 << precState)
			amps[0] = 1
			b.SetBytes(int64(len(amps) * 16 * 2))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kernels.Apply(amps, u.Data, qs)
			}
		})
		b.Run(fmt.Sprintf("%s/k%d/f32", set, k), func(b *testing.B) {
			amps := kernels.NewAmps[complex64](1 << precState)
			amps[0] = 1
			b.SetBytes(int64(len(amps) * 8 * 2))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kernels.Apply(amps, u32, qs)
			}
		})
		// The same kernel as an op inside a blocked run: every position
		// must lie below the block width, 16, so k = 5 moves down.
		if k == 5 {
			qs = []int{3, 6, 9, 12, 15}
		}
		b.Run(fmt.Sprintf("%s/resident/k%d/f64", set, k), func(b *testing.B) {
			benchResident[complex128](b, schedule.Op{Kind: schedule.OpCluster, Matrix: u, Positions: qs}, 0, precState)
		})
	}
	d := gate.RandomDiagonal(2, randRNG(46)).Diagonal()
	d32 := kernels.ToComplex64(d)
	qs := []int{6, 9}
	b.Run(set+"/diag/f64", func(b *testing.B) {
		amps := kernels.NewAmps[complex128](1 << precState)
		amps[0] = 1
		b.SetBytes(int64(len(amps) * 16 * 2))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			kernels.ApplyDiagonal(amps, d, qs)
		}
	})
	b.Run(set+"/diag/f32", func(b *testing.B) {
		amps := kernels.NewAmps[complex64](1 << precState)
		amps[0] = 1
		b.SetBytes(int64(len(amps) * 8 * 2))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			kernels.ApplyDiagonalF32(amps, d32, qs)
		}
	})
	b.Run(set+"/resident/diag/f64", func(b *testing.B) {
		benchResident[complex128](b, schedule.Op{Kind: schedule.OpDiagonal, Diag: d, Positions: qs}, 0, precState)
	})
}

// benchResident measures op at the rate it runs at inside a blocked run
// (DESIGN §12.2): a run of copies of it on a 2^benchState-amplitude shard
// of element type T with the given index, long enough to update 2^updates
// amplitudes — as many as one sweep of a 2^updates state, so the two ns/op
// compare directly. Every block takes the whole run while it sits in L2;
// memory is read once per run.
func benchResident[T complex64 | complex128](b *testing.B, op schedule.Op, index, updates int) {
	sh := schedule.Shard[T]{Amps: kernels.NewAmps[T](1 << benchState), L: benchState, Index: index}
	sh.Amps[0] = 1
	ops := make([]schedule.Op, 1<<(updates-benchState))
	for i := range ops {
		ops[i] = op
	}
	prog, err := sh.Compile(ops)
	if err != nil {
		b.Fatal(err)
	}
	var a T
	b.SetBytes(int64(unsafe.Sizeof(a)) * 2 << updates)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sh.Exec(prog)
	}
}

// diagState sizes BenchmarkDiagonal's streaming rows: 2^24 amplitudes, a
// 256 MiB complex128 state beyond the last-level cache.
const diagState = 24

// BenchmarkDiagonal records the diagonal kernels (BENCH_diag.json via make
// bench-diag) on the shapes of QFT(23)'s distributed plan (l = 20): five-wide
// diagonals — a controlled phase fused with its neighbours, 17 of 32
// entries exactly 1 — whose lowest position is 0, 1, 2 and 4, and the
// two-wide global [19 22], three entries of 1, whose high position lies
// above the shard. Each runs as a sweep of a 2^diagState state streamed from
// DRAM (kernels.ApplyDiagonal, ApplyDiagonalF32; [19 22] is inside it) and
// as an op inside a blocked run on a 2^20-amplitude shard of index 5, whose
// bit 22 is set (benchResident), in both precisions, under the name of the
// kernel set that ran: -tags noavx512 records the avx2 rows beside the
// avx512 ones. bytes/op counts one read and one write of every amplitude
// swept, as in BenchmarkKernelPrecision, whatever the unit entries spare.
// The qft23/rank7 row is the layer those shapes add up to: every stage
// program of the default QFT(23) l = 20 plan, its diagonals folded, on the
// 16 MiB shard of rank 7, the swaps' exchanges left out.
func BenchmarkDiagonal(b *testing.B) {
	set := kernels.ISA()
	for _, shape := range []struct {
		name string
		qs   []int
	}{
		{"lo0", []int{0, 3, 9, 10, 19}},
		{"lo1", []int{1, 11, 12, 13, 19}},
		{"lo2", []int{2, 14, 15, 16, 19}},
		{"lo4", []int{4, 5, 17, 18, 19}},
		{"global", []int{19, 22}},
	} {
		// Controlled phases of the lowest position on each of the others:
		// an entry is 1 unless that position's bit and another's are set.
		d := make([]complex128, 1<<len(shape.qs))
		for x := range d {
			phi := 0.0
			for j := 1; j < len(shape.qs) && x&1 != 0; j++ {
				phi += float64(x>>j&1) * math.Pi / float64(int(1)<<j)
			}
			d[x] = cmplx.Exp(complex(0, phi))
		}
		d32 := kernels.ToComplex64(d)
		op := schedule.Op{Kind: schedule.OpDiagonal, Diag: d, Positions: shape.qs}
		b.Run(fmt.Sprintf("%s/stream/%s/f64", set, shape.name), func(b *testing.B) {
			amps := kernels.NewAmps[complex128](1 << diagState)
			amps[0] = 1
			b.SetBytes(int64(len(amps) * 16 * 2))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kernels.ApplyDiagonal(amps, d, shape.qs)
			}
		})
		b.Run(fmt.Sprintf("%s/stream/%s/f32", set, shape.name), func(b *testing.B) {
			amps := kernels.NewAmps[complex64](1 << diagState)
			amps[0] = 1
			b.SetBytes(int64(len(amps) * 8 * 2))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kernels.ApplyDiagonalF32(amps, d32, shape.qs)
			}
		})
		b.Run(fmt.Sprintf("%s/resident/%s/f64", set, shape.name), func(b *testing.B) {
			benchResident[complex128](b, op, 5, diagState)
		})
		b.Run(fmt.Sprintf("%s/resident/%s/f32", set, shape.name), func(b *testing.B) {
			benchResident[complex64](b, op, 5, diagState)
		})
	}
	b.Run(set+"/qft23/rank7/f64", func(b *testing.B) {
		plan, err := schedule.Build(circuit.QFT(23), schedule.DefaultOptions(20))
		if err != nil {
			b.Fatal(err)
		}
		sh := schedule.Shard[complex128]{Amps: kernels.NewAmps[complex128](1 << 20), L: 20, Index: 7}
		sh.Amps[0] = 1
		stages, err := sh.Stages(plan, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, st := range stages {
				sh.Exec(st.Prog)
			}
		}
	})
}

// BenchmarkCircuitPrecision records the end-to-end precision pair on the
// same circuit: a 24-qubit depth-25 supremacy instance (every gate k ≤ 2 —
// dense 1-qubit gates plus T/CZ diagonals) executed gate by gate in double
// and single precision. This is the headline f32-vs-f64 number of
// BENCH_kernels.json; the per-kernel pairs above decompose it.
func BenchmarkCircuitPrecision(b *testing.B) {
	const n = 24
	c := benchSupremacy(n, 25)
	b.Run("supremacy24/f64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v := statevec.NewUniform(n)
			for j := range c.Gates {
				g := &c.Gates[j]
				v.Apply(g.Matrix(), g.Qubits...)
			}
		}
	})
	b.Run("supremacy24/f32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v := f32vec.Prepare(statevec.StartUniform, n)
			for j := range c.Gates {
				g := &c.Gates[j]
				v.State.Apply(g.Matrix(), g.Qubits...)
			}
		}
	})
}

// BenchmarkKernelFusion records the fused-vs-unfused execution baseline of
// the default scheduler (Sec. 3.3): the same supremacy circuit executed
// from the default plan — clusters as wide as schedule.MeasuredCosts
// prices in for this machine's kernel set, under the kmax = 5 cap — and
// from an unclustered plan (one kernel per gate), both on the kernels this
// machine runs. The fused/separate leaf pair yields the recorded speedup,
// which must stay ≥ 1: a default that fuses itself slower than no fusion
// means the cost table no longer describes the kernels.
func BenchmarkKernelFusion(b *testing.B) {
	c := benchSupremacy(benchState, 25)
	plans := map[string]*schedule.Plan{}
	for name, clustering := range map[string]bool{"fused": true, "separate": false} {
		opts := schedule.DefaultOptions(benchState)
		opts.Clustering = clustering
		plan, err := schedule.Build(c, opts)
		if err != nil {
			b.Fatal(err)
		}
		plans[name] = plan
	}
	for _, name := range []string{"separate", "fused"} {
		plan := plans[name]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v := statevec.NewUniform(benchState)
				if err := plan.Run(v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBlockedRun records what executing a run of ops one cache block
// at a time buys over one sweep of the state per op (DESIGN §12.2), as two
// perop/blocked leaf pairs whose derived speedups must stay ≥ 1: the default
// QFT(22) plan end to end — long runs of diagonals between a few clusters —
// and the longest run of consecutive diagonals of the distributed benchmark
// shape, QFT(23) at l = 20 (26 of them under the AVX2 cost table), alone on
// one rank's 2^20-amplitude shard. perop is the same shard applier handed
// one op at a time: a sweep of the whole shard per op.
func BenchmarkBlockedRun(b *testing.B) {
	run := func(name string, n, l, index int, pick func(ops []schedule.Op) []schedule.Op) {
		plan, err := schedule.Build(circuit.QFT(n), schedule.DefaultOptions(l))
		if err != nil {
			b.Fatal(err)
		}
		ops := pick(plan.Ops)
		for _, leaf := range []string{"perop", "blocked"} {
			blocked := leaf == "blocked"
			b.Run(name+"/"+leaf, func(b *testing.B) {
				sh := schedule.Shard[complex128]{Amps: statevec.NewUniform(l).Amps, L: l, Index: index}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if blocked {
						prog, err := sh.Compile(ops)
						if err != nil {
							b.Fatal(err)
						}
						sh.Exec(prog)
						continue
					}
					for j := range ops {
						if err := sh.Apply(&ops[j]); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
	run("qft22", 22, 22, 0, func(ops []schedule.Op) []schedule.Op { return ops })
	run("diagrun", 23, benchState, 5, func(ops []schedule.Op) (longest []schedule.Op) {
		for i := 0; i < len(ops); {
			j := i
			for j < len(ops) && ops[j].Kind == schedule.OpDiagonal {
				j++
			}
			if j-i > len(longest) {
				longest = ops[i:j]
			}
			i = j + 1
		}
		return longest
	})
}

// BenchmarkReduce records the result reductions of Sec. 4.2.2 in
// BENCH_kernels.json: kernels.Norm, Entropy and the fused NormEntropy over
// the uniform state in both precisions. bytes/op is one read of the state,
// so MB/s is the read bandwidth the pass sustains; the entropy rows are the
// ones with arithmetic to hide behind it
// (TestBenchFileReductionsAndSpeedups in internal/schedule holds
// entropy/f64 to half of norm/f64).
func BenchmarkReduce(b *testing.B) {
	benchReduce(b, "f64", 16, statevec.NewUniform(precState).Amps)
	benchReduce(b, "f32", 8, f32vec.Prepare(statevec.StartUniform, precState).Amps)
}

// reduceSink keeps the reductions' results live.
var reduceSink float64

func benchReduce[C complex64 | complex128](b *testing.B, prec string, ampBytes int, amps []C) {
	for _, r := range []struct {
		name string
		run  func() float64
	}{
		{"norm", func() float64 { return kernels.Norm(amps) }},
		{"entropy", func() float64 { return kernels.Entropy(amps) }},
		{"normentropy", func() float64 { _, h := kernels.NormEntropy(amps); return h }},
	} {
		b.Run(r.name+"/"+prec, func(b *testing.B) {
			b.SetBytes(int64(len(amps) * ampBytes))
			for i := 0; i < b.N; i++ {
				reduceSink = r.run()
			}
		})
	}
}

// BenchmarkStateAlloc is what a run pays for its state outside the kernels
// it was scheduled for (BENCH_kernels.json): a 2^24-amplitude buffer from
// kernels.NewAmps, one k = 1 sweep so that every page has been through the
// TLB once, then the drop, the collection and the return to the OS that the
// next run's allocation follows — between the reps of a real run the
// scavenger does the last step, and a benchmark loop that skipped it would
// recycle resident memory and time no page fault. MB/s counts the buffer
// once.
func BenchmarkStateAlloc(b *testing.B) {
	h := gate.H().Data
	b.Run("f64", func(b *testing.B) { benchStateAlloc(b, 16, h) })
	b.Run("f32", func(b *testing.B) { benchStateAlloc(b, 8, kernels.ToComplex64(h)) })
}

func benchStateAlloc[C complex64 | complex128](b *testing.B, ampBytes int, m []C) {
	const n = 1 << 24
	b.SetBytes(int64(n * ampBytes))
	for i := 0; i < b.N; i++ {
		amps := kernels.NewAmps[C](n)
		amps[0] = 1
		kernels.Apply(amps, m, []int{12})
		debug.FreeOSMemory() // amps is dead here
	}
}

// BenchmarkEmulationVsGates reproduces the related-work comparison ([7]):
// FFT-based QFT emulation vs gate-by-gate simulation of the QFT circuit.
// Emulation is asymptotically cheaper but, as the paper notes, inapplicable
// to supremacy circuits.
func BenchmarkEmulationVsGates(b *testing.B) {
	n := 18
	c := circuit.QFT(n)
	b.Run("gates", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v := statevec.NewUniform(n)
			for j := range c.Gates {
				g := &c.Gates[j]
				v.Apply(g.Matrix(), g.Qubits...)
			}
		}
	})
	b.Run("emulated-fft", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v := statevec.NewUniform(n)
			emulate.QFT(v)
		}
	})
}
