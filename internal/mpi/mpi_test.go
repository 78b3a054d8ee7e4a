package mpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"qusim/internal/kernels"
)

func TestBarrierOrdering(t *testing.T) {
	w := NewWorld(8)
	var before, after atomic.Int64
	err := w.Run(func(c *Comm) error {
		before.Add(1)
		c.Barrier()
		if got := before.Load(); got != 8 {
			return fmt.Errorf("rank %d passed barrier with only %d arrivals", c.Rank(), got)
		}
		after.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if after.Load() != 8 {
		t.Fatalf("only %d ranks finished", after.Load())
	}
}

func TestBarrierReusable(t *testing.T) {
	w := NewWorld(4)
	counters := make([]int64, 100)
	err := w.Run(func(c *Comm) error {
		for i := range counters {
			atomic.AddInt64(&counters[i], 1)
			c.Barrier()
			if atomic.LoadInt64(&counters[i]) != 4 {
				return fmt.Errorf("iteration %d: barrier leaked", i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAlltoallTransposes: the all-to-all on the whole world — the swap of
// every global qubit at once — is the group all-to-all over all rank bits.
func TestAlltoallTransposes(t *testing.T) {
	const size = 8
	const chunk = 16
	w := NewWorld(size)
	err := w.Run(func(c *Comm) error {
		send := make([][]complex128, size)
		recv := make([][]complex128, size)
		for j := 0; j < size; j++ {
			send[j] = make([]complex128, chunk)
			recv[j] = make([]complex128, chunk)
			for i := range send[j] {
				send[j][i] = complex(float64(c.Rank()), float64(j*chunk+i))
			}
		}
		c.GroupAlltoall([]int{0, 1, 2}, send, recv)
		for src := 0; src < size; src++ {
			for i := 0; i < chunk; i++ {
				want := complex(float64(src), float64(c.Rank()*chunk+i))
				if recv[src][i] != want {
					return fmt.Errorf("rank %d recv[%d][%d] = %v, want %v", c.Rank(), src, i, recv[src][i], want)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Traffic.Steps.Load(); got != 1 {
		t.Errorf("steps = %d, want 1", got)
	}
	wantBytes := int64(16 * chunk * size * (size - 1))
	if got := w.Traffic.Bytes.Load(); got != wantBytes {
		t.Errorf("bytes = %d, want %d", got, wantBytes)
	}
}

func TestGroupAlltoallMatchesManualGroups(t *testing.T) {
	// 8 ranks, groups over bit 1: members {r, r^2}. Each member sends two
	// chunks.
	const size = 8
	w := NewWorld(size)
	err := w.Run(func(c *Comm) error {
		send := [][]complex128{
			{complex(float64(c.Rank()), 0)},
			{complex(float64(c.Rank()), 1)},
		}
		recv := [][]complex128{make([]complex128, 1), make([]complex128, 1)}
		c.GroupAlltoall([]int{1}, send, recv)
		me := (c.Rank() >> 1) & 1
		for j := 0; j < 2; j++ {
			srcRank := c.Rank() &^ 2
			if j == 1 {
				srcRank |= 2
			}
			want := complex(float64(srcRank), float64(me))
			if recv[j][0] != want {
				return fmt.Errorf("rank %d recv[%d] = %v, want %v", c.Rank(), j, recv[j][0], want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Over one bit this is the pairwise exchange of the per-gate scheme: one
	// chunk crosses to the partner, the other is a free self-copy.
	if got := w.Traffic.Bytes.Load(); got != size*16 {
		t.Errorf("bytes = %d, want %d", got, size*16)
	}
}

func TestGroupAlltoallFullMaskEqualsWorld(t *testing.T) {
	// With every rank bit in the group the members are the world: member j is
	// rank j when the bits are named in order, and the rank with j's two bits
	// reversed when they are named high bit first.
	const size = 4
	for _, tc := range []struct {
		bitPositions []int
		rank         func(member int) int // also its own inverse
	}{
		{[]int{0, 1}, func(j int) int { return j }},
		{[]int{1, 0}, func(j int) int { return j&1<<1 | j>>1 }},
	} {
		w := NewWorld(size)
		err := w.Run(func(c *Comm) error {
			send := make([][]complex128, size)
			recv := make([][]complex128, size)
			for j := range send {
				send[j] = []complex128{complex(float64(c.Rank()*10+j), 0)}
				recv[j] = make([]complex128, 1)
			}
			c.GroupAlltoall(tc.bitPositions, send, recv)
			for j := range recv {
				if want := complex(float64(tc.rank(j)*10+tc.rank(c.Rank())), 0); recv[j][0] != want {
					return fmt.Errorf("bits %v rank %d: recv[%d] = %v, want %v", tc.bitPositions, c.Rank(), j, recv[j][0], want)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestAllreduceSum(t *testing.T) {
	w := NewWorld(6)
	err := w.Run(func(c *Comm) error {
		got := c.AllreduceSum(float64(c.Rank() + 1))
		if math.Abs(got-21) > 1e-12 {
			return fmt.Errorf("rank %d: sum = %v, want 21", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceRepeated(t *testing.T) {
	w := NewWorld(4)
	err := w.Run(func(c *Comm) error {
		for i := 0; i < 50; i++ {
			got := c.AllreduceSum(float64(i))
			if got != float64(4*i) {
				return fmt.Errorf("iteration %d: %v", i, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunPropagatesError(t *testing.T) {
	w := NewWorld(3)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			return fmt.Errorf("boom")
		}
		return nil
	})
	if err == nil || err.Error() != "boom" {
		t.Errorf("err = %v, want boom", err)
	}
}

// runWithTimeout runs fn under the world's own deadline machinery: if the
// poisoning that these error-path tests exercise ever regresses into a
// deadlock, Run itself returns an ErrStalled failure instead of hanging the
// test binary.
func runWithTimeout(t *testing.T, w *World, fn func(c *Comm) error) error {
	t.Helper()
	w.SetDeadline(10 * time.Second)
	err := w.Run(fn)
	if errors.Is(err, ErrStalled) {
		t.Fatalf("World.Run stalled instead of unwinding: %v", err)
	}
	return err
}

func TestRunErrorUnblocksBarrier(t *testing.T) {
	// Regression: one rank returning an error while the remaining ranks sit
	// inside Barrier used to leave them waiting for an arrival that never
	// comes, deadlocking Run (and every caller, dist.Run included) forever.
	w := NewWorld(4)
	err := runWithTimeout(t, w, func(c *Comm) error {
		if c.Rank() == 2 {
			return fmt.Errorf("rank 2 failed")
		}
		for i := 0; i < 3; i++ {
			c.Barrier()
		}
		return nil
	})
	if err == nil || err.Error() != "rank 2 failed" {
		t.Errorf("err = %v, want rank 2's failure", err)
	}
}

func TestRunErrorUnblocksAllreduce(t *testing.T) {
	// Same deadlock through a barrier-based collective instead of a bare
	// Barrier call.
	w := NewWorld(4)
	err := runWithTimeout(t, w, func(c *Comm) error {
		if c.Rank() == 0 {
			return fmt.Errorf("rank 0 failed")
		}
		c.AllreduceSum(1)
		return nil
	})
	if err == nil || err.Error() != "rank 0 failed" {
		t.Errorf("err = %v, want rank 0's failure", err)
	}
}

func TestRunErrorUnblocksGroupAlltoall(t *testing.T) {
	w := NewWorld(4)
	err := runWithTimeout(t, w, func(c *Comm) error {
		if c.Rank() == 3 {
			return fmt.Errorf("rank 3 failed")
		}
		send := [][]complex128{{1}, {2}}
		recv := [][]complex128{make([]complex128, 1), make([]complex128, 1)}
		c.GroupAlltoall([]int{0}, send, recv)
		return nil
	})
	if err == nil || err.Error() != "rank 3 failed" {
		t.Errorf("err = %v, want rank 3's failure", err)
	}
}

func TestRunPanicUnblocksBarrier(t *testing.T) {
	// A real panic must also poison the barrier, then re-raise on the caller.
	w := NewWorld(4)
	done := make(chan any, 1)
	go func() {
		var p any
		func() {
			defer func() { p = recover() }()
			w.Run(func(c *Comm) error {
				if c.Rank() == 1 {
					panic("rank 1 exploded")
				}
				c.Barrier()
				return nil
			})
		}()
		done <- p
	}()
	select {
	case p := <-done:
		if p == nil {
			t.Error("panic was swallowed instead of re-raised")
		} else if s, ok := p.(string); !ok || s != "rank 1 exploded" {
			t.Errorf("re-raised %v, want the rank's panic value", p)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("World.Run deadlocked after a rank panicked mid-collective")
	}
}

func TestWorldReusableAfterPoisonedRun(t *testing.T) {
	// Run must re-arm the barrier and clear the board: a clean Run on the same
	// world after one poisoned inside a collective works normally and receives
	// nothing the dead run posted. Each collective carries tag in every
	// amplitude it posts and checks it on what it receives.
	fresh := func(c *Comm, tag float64, recv [][]complex128) error {
		for j := range recv {
			if want := complex(tag, float64(c.Rank()&^1|j)); recv[j][0] != want {
				return fmt.Errorf("rank %d: recv[%d] = %v, want %v", c.Rank(), j, recv[j][0], want)
			}
		}
		return nil
	}
	for _, tc := range []struct {
		name string
		run  func(c *Comm, tag float64) error
	}{
		{"Barrier", func(c *Comm, _ float64) error { c.Barrier(); return nil }},
		{"GroupAlltoall", func(c *Comm, tag float64) error {
			mine := complex(tag, float64(c.Rank()))
			recv := [][]complex128{make([]complex128, 1), make([]complex128, 1)}
			c.GroupAlltoall([]int{0}, [][]complex128{{mine}, {mine}}, recv)
			return fresh(c, tag, recv)
		}},
		{"GroupExchange", func(c *Comm, tag float64) error {
			local := []complex128{complex(tag, float64(c.Rank())), complex(tag, float64(c.Rank()))}
			c.GroupExchange([]int{0}, kernels.AmpBytes(local), 16)
			return fresh(c, tag, [][]complex128{local[:1], local[1:]})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := NewWorld(4)
			err := runWithTimeout(t, w, func(c *Comm) error {
				if c.Rank() == 0 {
					return fmt.Errorf("first run fails")
				}
				return tc.run(c, 42)
			})
			if err == nil || err.Error() != "first run fails" {
				t.Fatalf("first run: err = %v, want rank 0's failure", err)
			}
			var after atomic.Int64
			err = runWithTimeout(t, w, func(c *Comm) error {
				if err := tc.run(c, 7); err != nil {
					return err
				}
				after.Add(1)
				c.Barrier()
				return nil
			})
			if err != nil {
				t.Fatalf("second run on reused world: %v", err)
			}
			if after.Load() != 4 {
				t.Errorf("only %d ranks got through on the reused world", after.Load())
			}
		})
	}
}

func TestDeadlineNamesStuckCollective(t *testing.T) {
	// A rank hung outside the communication layer can only be caught by the
	// wall clock. The error must say which collective the survivors were
	// blocked in, so the failure is diagnosable.
	w := NewWorld(4)
	w.SetDeadline(100 * time.Millisecond)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			time.Sleep(2 * time.Second) // hung in "compute"
		}
		c.Barrier()
		return nil
	})
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
	if !strings.Contains(err.Error(), "Barrier") {
		t.Errorf("deadline error does not name the stuck collective: %v", err)
	}
	if !Recoverable(err) {
		t.Errorf("deadline failure should be Recoverable: %v", err)
	}
}

func TestCollectiveMismatchIsClassified(t *testing.T) {
	// Ranks whose collective sequences diverge meet at a barrier in different
	// collectives. The rendezvous must refuse to pair them — rank 1's sum
	// would otherwise read whatever rank 0 left in the reduce board — and
	// name both collectives.
	w := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			c.Barrier()
			c.Barrier()
		} else {
			c.AllreduceSum(1)
		}
		return nil
	})
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
	for _, name := range []string{"Barrier", "AllreduceSum"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("mismatch error does not name %s: %v", name, err)
		}
	}
}

func TestRunLeavesNoGoroutines(t *testing.T) {
	// Run joins every rank goroutine and its own waiter, after a clean run
	// and after one a rank's error poisoned. (A deadline failure abandons
	// ranks hung outside the communication layer by design.)
	for _, fail := range []bool{false, true} {
		base := runtime.NumGoroutine()
		err := NewWorld(4).Run(func(c *Comm) error {
			c.Barrier()
			if fail && c.Rank() == 2 {
				return fmt.Errorf("rank 2 fails")
			}
			c.AllreduceSum(1)
			return nil
		})
		if (err != nil) != fail {
			t.Fatalf("fail=%v: err = %v", fail, err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Fatalf("fail=%v: goroutines leaked: %d > baseline %d\n%s",
					fail, runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

func TestCrashDetectedWithoutTimer(t *testing.T) {
	// A silently dead rank must be detected the moment every survivor is
	// provably blocked on it — no deadline is set here, so a regression to
	// timer-based detection (or a hang) fails the test only via the test
	// binary's own timeout, and a correct implementation returns instantly.
	w := NewWorld(4)
	crash := &CrashFault{Rank: 2, Collective: 1}
	w.InjectFaults(&FaultPlan{Crash: crash})
	err := w.Run(func(c *Comm) error {
		c.Barrier()       // collective 0: everyone passes
		c.AllreduceSum(1) // collective 1: rank 2 dies on entry
		c.Barrier()       // never reached by anyone
		return nil
	})
	if !errors.Is(err, ErrRankDead) {
		t.Fatalf("err = %v, want ErrRankDead", err)
	}
	if !strings.Contains(err.Error(), "[2]") {
		t.Errorf("error does not identify the dead rank: %v", err)
	}
	if !crash.Fired() {
		t.Error("crash fault did not report firing")
	}
	if got := w.FaultEvents(); got != 1 {
		t.Errorf("FaultEvents = %d, want 1", got)
	}
	if !Recoverable(err) {
		t.Errorf("rank death should be Recoverable: %v", err)
	}
}

func TestCrashFiresAtMostOncePerPlan(t *testing.T) {
	// The fire-once state lives in the plan, so a restart attempt on a fresh
	// world sharing the plan replays cleanly past the injection point.
	plan := &FaultPlan{Crash: &CrashFault{Rank: 0, Collective: 0}}
	w := NewWorld(2)
	w.InjectFaults(plan)
	if err := w.Run(func(c *Comm) error { c.Barrier(); return nil }); !errors.Is(err, ErrRankDead) {
		t.Fatalf("first run: err = %v, want ErrRankDead", err)
	}
	w2 := NewWorld(2)
	w2.InjectFaults(plan)
	if err := w2.Run(func(c *Comm) error { c.Barrier(); return nil }); err != nil {
		t.Fatalf("second run should survive the already-fired fault, got %v", err)
	}
}

// TestCrashedRankReportedEvenWithoutDeadlock deliberately has one rank
// enter a barrier nobody else joins — the asymmetry under test.
func TestCrashedRankReportedEvenWithoutDeadlock(t *testing.T) {
	// If the dead rank was the only one still in a collective, the survivors
	// finish normally — the death must still be reported, not swallowed.
	w := NewWorld(4)
	w.InjectFaults(&FaultPlan{Crash: &CrashFault{Rank: 1, Collective: 0}})
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			c.Barrier() // dies on entry; nobody else joins this barrier
		}
		return nil
	})
	if !errors.Is(err, ErrRankDead) {
		t.Fatalf("err = %v, want ErrRankDead", err)
	}
}

func TestChecksumDetectsAlltoallCorruption(t *testing.T) {
	w := NewWorld(4)
	w.SetVerifyChecksums(true)
	corrupt := &CorruptFault{Rank: 1, Exchange: 0}
	w.InjectFaults(&FaultPlan{Corrupt: corrupt})
	err := w.Run(func(c *Comm) error {
		send := make([][]complex128, 4)
		recv := make([][]complex128, 4)
		for j := range send {
			send[j] = []complex128{complex(float64(c.Rank()), float64(j))}
			recv[j] = make([]complex128, 1)
		}
		c.GroupAlltoall([]int{0, 1}, send, recv)
		return nil
	})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), "rank 1") {
		t.Errorf("error does not name the corrupting sender: %v", err)
	}
	if !corrupt.Fired() {
		t.Error("corrupt fault did not report firing")
	}
	if !Recoverable(err) {
		t.Errorf("detected corruption should be Recoverable: %v", err)
	}
}

func TestChecksumDetectsExchangeCorruption(t *testing.T) {
	// GroupExchange verifies every piece it staged before the piece reaches
	// the shard; the flip lands in the receiver's staged copy, so the
	// sender's shard (what it sent, until it is overwritten by what it
	// received) never holds the flipped bit.
	for _, piece := range []int{1, 2, exchangeBytes / 16} {
		w := NewWorld(4)
		w.SetVerifyChecksums(true)
		corrupt := &CorruptFault{Rank: 2, Exchange: 0}
		w.InjectFaults(&FaultPlan{Corrupt: corrupt})
		err := w.Run(func(c *Comm) error {
			local := make([]complex128, 4)
			for i := range local {
				local[i] = complex(float64(c.Rank()), float64(i))
			}
			exchange(c, []int{0}, local, piece)
			return nil
		})
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("piece %d: err = %v, want ErrCorrupt", piece, err)
		}
		if !strings.Contains(err.Error(), "rank 2") {
			t.Errorf("piece %d: error does not name the corrupting sender: %v", piece, err)
		}
		if !corrupt.Fired() {
			t.Errorf("piece %d: corrupt fault did not report firing", piece)
		}
	}
}

// TestExchangeCorruptionSilentWithoutChecksums: without verification the
// flipped bit lands in the receiver's shard, in exactly one amplitude of the
// whole world, and nowhere in the sender's.
func TestExchangeCorruptionSilentWithoutChecksums(t *testing.T) {
	w := NewWorld(2)
	w.InjectFaults(&FaultPlan{Corrupt: &CorruptFault{Rank: 1, Exchange: 0}})
	shards := make([][]complex128, 2)
	err := w.Run(func(c *Comm) error {
		local := []complex128{complex(3, 4), complex(3, 4), complex(3, 4), complex(3, 4)}
		exchange(c, []int{0}, local, 1)
		shards[c.Rank()] = local
		return nil
	})
	if err != nil {
		t.Fatalf("without checksums the corrupted run must complete: %v", err)
	}
	for i, a := range shards[1] {
		if a != complex(3, 4) {
			t.Errorf("sender's shard[%d] = %v: the flip must stay in the receiver's copy", i, a)
		}
	}
	flipped := 0
	for _, a := range shards[0] {
		if a != complex(3, 4) {
			flipped++
		}
	}
	if flipped != 1 {
		t.Errorf("%d amplitudes of the receiver differ, want exactly 1", flipped)
	}
}

// TestChunkSumViewAndPortableAgree: the exchange checksums a piece's bytes as
// they lie, which on a little-endian host is CRC32C over the per-element
// little-endian encoding that snapshots hold (kernels.ToWire), at lengths
// around the codec's window. A big-endian host checksums its own byte order.
func TestChunkSumViewAndPortableAgree(t *testing.T) {
	if binary.NativeEndian.Uint16([]byte{1, 0}) != 1 {
		t.Skip("the wire encoding is little-endian; this host checksums its own byte order")
	}
	for _, n := range []int{0, 1, 7, 4095, 4096, 4097, 10000} {
		a := make([]complex128, n)
		var enc []byte
		for i := range a {
			a[i] = complex(float64(i)+0.25, -float64(n-i))
			enc = binary.LittleEndian.AppendUint64(enc, math.Float64bits(real(a[i])))
			enc = binary.LittleEndian.AppendUint64(enc, math.Float64bits(imag(a[i])))
		}
		if got, want := chunkSum(kernels.AmpBytes(a)), crc32.Checksum(enc, kernels.Castagnoli); got != want {
			t.Errorf("n=%d: chunk CRC %08x, CRC of the per-element encoding %08x", n, got, want)
		}
	}
}

func TestCorruptionSilentWithoutChecksums(t *testing.T) {
	// Without verification the flipped bit sails through — that blind spot is
	// exactly what SetVerifyChecksums closes. The sender's own buffer must
	// stay intact (the flip lives on a wire copy), modeling in-flight rather
	// than in-memory corruption.
	w := NewWorld(2)
	w.InjectFaults(&FaultPlan{Corrupt: &CorruptFault{Rank: 1, Exchange: 0}})
	var delivered, sent complex128
	err := w.Run(func(c *Comm) error {
		send := make([][]complex128, 2)
		recv := make([][]complex128, 2)
		for j := range send {
			send[j] = []complex128{complex(3.0, 4.0)}
			recv[j] = make([]complex128, 1)
		}
		c.GroupAlltoall([]int{0}, send, recv)
		if c.Rank() == 0 {
			delivered = recv[1][0]
		}
		if c.Rank() == 1 {
			sent = send[0][0]
		}
		return nil
	})
	if err != nil {
		t.Fatalf("without checksums the corrupted run must complete: %v", err)
	}
	if delivered == complex(3.0, 4.0) {
		t.Error("corruption did not reach the receiver")
	}
	if sent != complex(3.0, 4.0) {
		t.Errorf("sender's own buffer was mutated to %v; corruption must stay on the wire", sent)
	}
}

func TestChecksumsCleanRunUnaffected(t *testing.T) {
	// Verification on, no faults: payloads round-trip exactly and no error
	// surfaces — checksums are an audit, not a perturbation.
	const size = 4
	w := NewWorld(size)
	w.SetVerifyChecksums(true)
	err := w.Run(func(c *Comm) error {
		send := make([][]complex128, size)
		recv := make([][]complex128, size)
		for j := range send {
			send[j] = []complex128{complex(float64(c.Rank()), float64(j))}
			recv[j] = make([]complex128, 1)
		}
		c.GroupAlltoall([]int{0, 1}, send, recv)
		for src := range recv {
			if want := complex(float64(src), float64(c.Rank())); recv[src][0] != want {
				return fmt.Errorf("rank %d: recv[%d] = %v, want %v", c.Rank(), src, recv[src][0], want)
			}
		}
		local := []complex128{complex(0, float64(c.Rank())), complex(1, float64(c.Rank()))}
		c.GroupExchange([]int{0}, kernels.AmpBytes(local), 16)
		for j := range local {
			if want := complex(float64(c.Rank()&1), float64(c.Rank()&^1|j)); local[j] != want {
				return fmt.Errorf("rank %d: exchanged local[%d] = %v, want %v", c.Rank(), j, local[j], want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecoverableClassification(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want bool
	}{
		{fmt.Errorf("wrapped: %w", ErrCorrupt), true},
		{fmt.Errorf("wrapped: %w", ErrRankDead), true},
		{fmt.Errorf("wrapped: %w", ErrStalled), true},
		{fmt.Errorf("engine bug"), false},
		{nil, false},
	} {
		if got := Recoverable(tc.err); got != tc.want {
			t.Errorf("Recoverable(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}
