package mpi

import (
	"testing"
	"time"

	"qusim/internal/kernels"
	"qusim/internal/telemetry"
)

// TestTelemetryCountsMatchTraffic asserts the telemetry byte/step counters
// agree exactly with the World's authoritative Traffic accounting, and that
// instrumented collectives populate their latency histograms and comm-side
// trace spans.
func TestTelemetryCountsMatchTraffic(t *testing.T) {
	const ranks = 8
	tel := telemetry.New()
	w := NewWorld(ranks)
	w.SetTelemetry(tel)
	w.SetVerifyChecksums(true)

	err := w.Run(func(c *Comm) error {
		chunks := make([][]complex128, ranks)
		recv := make([][]complex128, ranks)
		for i := range chunks {
			chunks[i] = make([]complex128, 4)
			recv[i] = make([]complex128, 4)
			for j := range chunks[i] {
				chunks[i][j] = complex(float64(c.Rank()), float64(i))
			}
		}
		c.Barrier()
		c.GroupAlltoall([]int{0, 1, 2}, chunks, recv)
		c.AllreduceSum(float64(c.Rank()))
		c.GroupExchange([]int{0}, kernels.AmpBytes(chunks[0]), 16)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	if got, want := tel.Counter("mpi.bytes").Value(), w.Traffic.Bytes.Load(); got != want {
		t.Errorf("mpi.bytes = %d, Traffic.Bytes = %d", got, want)
	}
	if got, want := tel.Counter("mpi.steps").Value(), w.Traffic.Steps.Load(); got != want {
		t.Errorf("mpi.steps = %d, Traffic.Steps = %d", got, want)
	}
	if got := tel.Counter("mpi.bytes").Value(); got == 0 {
		t.Error("no bytes counted")
	}
	if got := tel.Counter("mpi.checksums_verified").Value(); got == 0 {
		t.Error("checksums on but none verified")
	}
	if got := tel.Counter("mpi.checksums_failed").Value(); got != 0 {
		t.Errorf("mpi.checksums_failed = %d on a clean run", got)
	}
	for _, metric := range []string{
		"mpi.barrier_ns", "mpi.group_exchange_ns", "mpi.allreduce_sum_ns",
	} {
		h := tel.Histogram(metric)
		if h.Count() != ranks {
			t.Errorf("%s count = %d, want %d (one per rank)", metric, h.Count(), ranks)
		}
		if h.Sum() <= 0 {
			t.Errorf("%s sum = %d, want > 0", metric, h.Sum())
		}
	}
	// Each rank's comm timeline: barrier + all-to-all (a span, but since no
	// plan runs through it no histogram) + allreduce + exchange.
	if got, want := tel.SpanCount(), 4*ranks; got != want {
		t.Errorf("span count = %d, want %d", got, want)
	}
}

// TestTelemetryWatchdog asserts the deadline watchdog's lifecycle is
// counted: armed on every Run under a deadline, expired when it fires.
func TestTelemetryWatchdog(t *testing.T) {
	tel := telemetry.New()
	w := NewWorld(2)
	w.SetTelemetry(tel)
	w.SetDeadline(time.Hour)
	if err := w.Run(func(c *Comm) error { c.Barrier(); return nil }); err != nil {
		t.Fatal(err)
	}
	if got := tel.Counter("mpi.watchdog_armed").Value(); got != 1 {
		t.Errorf("watchdog_armed = %d, want 1", got)
	}
	if got := tel.Counter("mpi.watchdog_expired").Value(); got != 0 {
		t.Errorf("watchdog_expired = %d on a fast run", got)
	}

	// A rank hung outside the communication layer is invisible to exact
	// dead-rank detection, so only the wall-clock watchdog catches it.
	w2 := NewWorld(2)
	w2.SetTelemetry(tel)
	w2.SetDeadline(50 * time.Millisecond)
	err := w2.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			time.Sleep(500 * time.Millisecond) // hung in "compute"
		}
		c.Barrier()
		return nil
	})
	if err == nil {
		t.Fatal("stalled run returned nil error")
	}
	if got := tel.Counter("mpi.watchdog_expired").Value(); got != 1 {
		t.Errorf("watchdog_expired = %d after a stall, want 1", got)
	}
	if got := tel.Counter("mpi.stalls_detected").Value(); got != 1 {
		t.Errorf("stalls_detected = %d, want 1", got)
	}
}
