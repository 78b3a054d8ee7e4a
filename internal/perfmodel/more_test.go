package perfmodel

import (
	"math"
	"testing"

	"qusim/internal/schedule"
)

func TestSingleNodeHasNoCommTime(t *testing.T) {
	stats := buildStats(t, 20, 25, 20)
	est := EstimateScheduled(CoriKNL(), CrayAries(), stats, 1)
	if est.CommSec != 0 {
		t.Errorf("single node modeled comm time %v", est.CommSec)
	}
	if est.CommFraction != 0 {
		t.Errorf("single node comm fraction %v", est.CommFraction)
	}
	if est.ComputeSec <= 0 {
		t.Error("no compute time modeled")
	}
}

// TestScheduledPricesFoldedDiagonalsAndOnePassPerms pins the two sweep
// terms of EstimateScheduled: the diagonals the fold left, never fewer than
// none, and one pass per local permutation.
func TestScheduledPricesFoldedDiagonalsAndOnePassPerms(t *testing.T) {
	m, sweep := CoriKNL(), CoriKNL().SweepTime(20)
	for _, c := range []struct {
		diag, folded, perms int
		sweeps              float64
	}{
		{diag: 7, folded: 0, perms: 0, sweeps: 7},
		{diag: 7, folded: 5, perms: 0, sweeps: 2},
		{diag: 2, folded: 5, perms: 0, sweeps: 0},
		{diag: 0, folded: 0, perms: 3, sweeps: 3},
		{diag: 7, folded: 5, perms: 3, sweeps: 5},
	} {
		stats := schedule.Stats{Qubits: 20, DiagonalOps: c.diag, FoldedDiagonals: c.folded, LocalPerms: c.perms}
		got := EstimateScheduled(m, CrayAries(), stats, 1).ComputeSec
		if want := c.sweeps * sweep; math.Abs(got-want) > 1e-12*want {
			t.Errorf("%d diagonals, %d folded, %d perms: %g s, want %g sweeps = %g s", c.diag, c.folded, c.perms, got, c.sweeps, want)
		}
	}
}

func TestKernelTimeScalesWithState(t *testing.T) {
	m := EdisonSocket()
	small := m.KernelTime(4, 24)
	big := m.KernelTime(4, 28)
	ratio := big / small
	if math.Abs(ratio-16) > 1 {
		t.Errorf("kernel time ratio for 16x state: %v, want ≈16", ratio)
	}
}

func TestSweepTimeIsBandwidthBound(t *testing.T) {
	m := EdisonSocket()
	// One sweep of 2^28 amplitudes at 32 B each over 52 GB/s.
	want := math.Pow(2, 28) * 32 / (52e9)
	if got := m.SweepTime(28); math.Abs(got-want)/want > 1e-9 {
		t.Errorf("sweep time %v, want %v", got, want)
	}
}

func TestLargerKernelsTakeLongerButLessPerFlop(t *testing.T) {
	m := CoriKNL()
	prevTime, prevPerFlop := 0.0, math.Inf(1)
	for k := 1; k <= 5; k++ {
		tm := m.KernelTime(k, 26)
		perFlop := tm / KernelFlops(26, k)
		if tm < prevTime {
			t.Errorf("k=%d kernel faster than k=%d", k, k-1)
		}
		if perFlop > prevPerFlop*1.0000001 {
			t.Errorf("k=%d: time per FLOP grew (%v > %v) — fusion would not pay", k, perFlop, prevPerFlop)
		}
		prevTime, prevPerFlop = tm, perFlop
	}
}

func TestEstimateBaselineWorseThanScheduled(t *testing.T) {
	for _, nodes := range []int{64, 1024, 4096} {
		stats := buildStats(t, 36, 25, 36-log2(nodes))
		s := EstimateScheduled(CoriKNL(), CrayAries(), stats, nodes)
		b := EstimateBaseline(CoriKNL(), CrayAries(), stats, nodes)
		if b.TotalSec <= s.TotalSec {
			t.Errorf("nodes=%d: baseline %v not slower than scheduled %v", nodes, b.TotalSec, s.TotalSec)
		}
	}
}

func TestPFLOPSWithinMachinePeak(t *testing.T) {
	stats := buildStats(t, 42, 25, 30)
	est := EstimateScheduled(CoriKNL(), CrayAries(), stats, 4096)
	peak := 4096 * CoriKNL().PeakGFLOPS / 1e6 // PFLOPS
	if est.PFLOPS <= 0 || est.PFLOPS > peak {
		t.Errorf("modeled %v PFLOPS outside (0, %v]", est.PFLOPS, peak)
	}
}

func TestLog2(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 64: 6, 8192: 13}
	for n, want := range cases {
		if got := log2(n); got != want {
			t.Errorf("log2(%d) = %d, want %d", n, got, want)
		}
	}
}
