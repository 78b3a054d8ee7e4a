package mpi

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// faultAlltoallRun executes one fault-injected all-to-all world and returns
// the world for counter inspection. Every rank checks the transpose
// property, so correctness under adversity is asserted inside.
func faultAlltoallRun(t *testing.T, fp *FaultPlan) *World {
	t.Helper()
	const size = 8
	const chunk = 16
	w := NewWorld(size)
	w.InjectFaults(fp)
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
	return w
}

func TestFaultyAlltoallStillTransposes(t *testing.T) {
	fp := &FaultPlan{
		Seed:            7,
		PostDelay:       30 * time.Microsecond,
		ShuffleDelivery: true,
		BarrierJitter:   10 * time.Microsecond,
	}
	w := faultAlltoallRun(t, fp)
	if w.FaultEvents() == 0 {
		t.Error("fault plan armed but no perturbations injected")
	}
	// Traffic accounting must be oblivious to injected adversity.
	if got := w.Traffic.Steps.Load(); got != 1 {
		t.Errorf("steps = %d, want 1", got)
	}
	const size, chunk = 8, 16
	if got, want := w.Traffic.Bytes.Load(), int64(16*chunk*size*(size-1)); got != want {
		t.Errorf("bytes = %d, want %d", got, want)
	}
}

func TestFaultEventCountDeterministic(t *testing.T) {
	fp := &FaultPlan{Seed: 11, PostDelay: 5 * time.Microsecond, ShuffleDelivery: true, BarrierJitter: 5 * time.Microsecond}
	a := faultAlltoallRun(t, fp).FaultEvents()
	b := faultAlltoallRun(t, fp).FaultEvents()
	if a != b {
		t.Errorf("same seed injected %d then %d events", a, b)
	}
}

func TestGroupAlltoallUnderFaults(t *testing.T) {
	// A 2-bit group all-to-all across 8 ranks (groups of 4), with shuffled
	// delivery: values must land exactly as in the clean run.
	const size = 8
	const chunk = 8
	const q = 2
	bitPositions := []int{0, 1}
	w := NewWorld(size)
	w.InjectFaults(DefaultFaults(19))
	err := w.Run(func(c *Comm) error {
		me := c.Rank() & 3
		send := make([][]complex128, 1<<q)
		recv := make([][]complex128, 1<<q)
		for j := range send {
			send[j] = make([]complex128, chunk)
			recv[j] = make([]complex128, chunk)
			for i := range send[j] {
				send[j][i] = complex(float64(c.Rank()), float64(j*chunk+i))
			}
		}
		c.GroupAlltoall(bitPositions, send, recv)
		base := c.Rank() &^ 3
		for j := 0; j < 1<<q; j++ {
			src := base | j
			for i := 0; i < chunk; i++ {
				want := complex(float64(src), float64(me*chunk+i))
				if recv[j][i] != want {
					return fmt.Errorf("rank %d recv[%d][%d] = %v, want %v", c.Rank(), j, i, recv[j][i], want)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.FaultEvents() == 0 {
		t.Error("no perturbations injected")
	}
}

// TestTrafficCountersExactUnderInterleaving runs a world all-to-all plus a
// machine-wide round of pairwise (one-bit) exchanges under a GOMAXPROCS sweep — from
// fully serialized goroutines to maximum parallelism — and asserts the
// Traffic counters come out exact every time. With -race this doubles as
// the interleaving soak for the counter paths.
func TestTrafficCountersExactUnderInterleaving(t *testing.T) {
	const size = 8
	const chunk = 32
	for _, procs := range []int{1, 2, runtime.NumCPU()} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			old := runtime.GOMAXPROCS(procs)
			t.Cleanup(func() { runtime.GOMAXPROCS(old) })
			for rep := 0; rep < 10; rep++ {
				w := NewWorld(size)
				err := w.Run(func(c *Comm) error {
					// One all-to-all round.
					send := make([][]complex128, size)
					recv := make([][]complex128, size)
					for j := range send {
						send[j] = make([]complex128, chunk)
						recv[j] = make([]complex128, chunk)
					}
					c.GroupAlltoall([]int{0, 1, 2}, send, recv)
					// One machine-wide pairwise-exchange round.
					c.GroupAlltoall([]int{0}, send[:2], recv[:2])
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if got := w.Traffic.Steps.Load(); got != 2 {
					t.Fatalf("rep %d: steps = %d, want 2 (one all-to-all + one pairwise round)", rep, got)
				}
				wantBytes := int64(16*chunk*size*(size-1)) + // all-to-all, self excluded
					int64(16*chunk*size) // pairwise: each of size ranks receives one chunk
				if got := w.Traffic.Bytes.Load(); got != wantBytes {
					t.Fatalf("rep %d: bytes = %d, want %d", rep, got, wantBytes)
				}
			}
		})
	}
}
