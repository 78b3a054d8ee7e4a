package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qusim/internal/telemetry"
)

// TestForOutlastsSpinWindow: pool chunks that run far longer than the spin
// window — so the caller, its own chunk done at once, gives up polling and
// blocks while they run — all finish before For returns.
func TestForOutlastsSpinWindow(t *testing.T) {
	old := SetWorkers(4)
	t.Cleanup(func() { SetWorkers(old) })
	var finished atomic.Int64
	For(4, 1, func(lo, hi int) {
		if lo > 0 {
			time.Sleep(5 * spinWindow)
		}
		finished.Add(int64(hi - lo))
	})
	if got := finished.Load(); got != 4 {
		t.Fatalf("For returned with %d of 4 chunks finished", got)
	}
}

// TestForWakesParkedWorker is the lost-wakeup check of the park path: once
// every worker has outlived its spin window and blocked on the queue, a
// chunk the caller cannot steal must still reach a pool worker. The
// caller's own chunk waits until another chunk has started, so only a
// woken worker can let the call finish.
func TestForWakesParkedWorker(t *testing.T) {
	old := SetWorkers(4)
	t.Cleanup(func() { SetWorkers(old) })
	For(4, 1, func(lo, hi int) {}) // the pool exists before it idles
	time.Sleep(20 * spinWindow)
	for deadline := time.Now().Add(time.Second); spinners.Load() != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("%d workers still polling after the pool went idle", spinners.Load())
		}
		time.Sleep(spinWindow)
	}

	tel := telemetry.New()
	SetTelemetry(tel)
	t.Cleanup(func() { SetTelemetry(nil) })
	const n = 1 << 10
	seen := make([]int32, n)
	started := make(chan struct{})
	var once sync.Once
	For(n, 1, func(lo, hi int) {
		if lo == 0 {
			select {
			case <-started:
			case <-time.After(10 * time.Second):
				t.Error("no pool worker woke for a queued chunk")
			}
		} else {
			once.Do(func() { close(started) })
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&seen[i], 1)
		}
	})
	if got := tel.Counter("par.chunks").Value(); got == 0 {
		t.Error("par.chunks = 0: no chunk ran on a pool worker")
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

// TestForCapsSpinners oversubscribes the pool (four workers per P, several
// callers at once) and holds For and ReduceFloat64 exact while at most
// GOMAXPROCS − 1 workers ever poll the queue together. The For chunks sleep,
// so many workers come off their chunks at once and all want to poll.
func TestForCapsSpinners(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	old := SetWorkers(4 * procs)
	t.Cleanup(func() { SetWorkers(old) })
	spinPeak.Store(0)

	const callers, rounds, n = 4, 20, 1 << 10
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				seen := make([]int32, n)
				For(n, 1, func(lo, hi int) {
					time.Sleep(spinWindow / 4)
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&seen[i], 1)
					}
				})
				for i, v := range seen {
					if v != 1 {
						t.Errorf("index %d visited %d times", i, v)
						return
					}
				}
				sum := ReduceFloat64(n, 1, func(lo, hi int) float64 {
					var s float64
					for i := lo; i < hi; i++ {
						s += float64(i)
					}
					return s
				})
				if want := float64(n*(n-1)) / 2; sum != want {
					t.Errorf("reduce = %v, want %v", sum, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	peak := spinPeak.Load()
	if peak > int64(procs-1) {
		t.Errorf("%d workers polled at once, cap is GOMAXPROCS − 1 = %d", peak, procs-1)
	}
	if procs > 1 && peak < 1 {
		t.Error("no worker ever polled the queue")
	}
}
