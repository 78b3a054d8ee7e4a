package dist

import (
	"math"
	"testing"

	"qusim/internal/schedule"
)

func TestThirtyTwoRanks(t *testing.T) {
	c := supremacy(12, 12, 141, false)
	opts := schedule.DefaultOptions(7) // 5 global qubits
	plan, err := schedule.Build(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(plan, Options{Ranks: 32, Init: InitZero})
	if err != nil {
		t.Fatal(err)
	}
	want := naive(c, InitZero)
	if math.Abs(res.Entropy-want.Entropy()) > 1e-9 {
		t.Errorf("32-rank entropy %v, want %v", res.Entropy, want.Entropy())
	}
}

func TestGatherStateLayout(t *testing.T) {
	// Rank r's local amplitudes must land at offset r·2^l in the gathered
	// state: verify with a basis state on a known rank.
	c := supremacy(10, 8, 142, false)
	plan, err := schedule.Build(c, schedule.DefaultOptions(8))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(plan, Options{Ranks: 4, Init: InitZero, GatherState: true})
	if err != nil {
		t.Fatal(err)
	}
	var norm float64
	for _, a := range res.Amplitudes {
		norm += real(a)*real(a) + imag(a)*imag(a)
	}
	if math.Abs(norm-1) > 1e-9 {
		t.Errorf("gathered state norm %v", norm)
	}
	if len(res.Amplitudes) != 1<<c.N {
		t.Errorf("gathered %d amplitudes, want %d", len(res.Amplitudes), 1<<c.N)
	}
}

func TestBaselineSingleRank(t *testing.T) {
	c := supremacy(10, 12, 143, false)
	res, err := RunBaseline(c, BaselineOptions{Ranks: 1, Init: InitZero})
	if err != nil {
		t.Fatal(err)
	}
	if res.CommSteps != 0 || res.CommBytes != 0 {
		t.Errorf("single-rank baseline communicated: %d steps %d bytes", res.CommSteps, res.CommBytes)
	}
	want := naive(c, InitZero)
	if math.Abs(res.Entropy-want.Entropy()) > 1e-9 {
		t.Errorf("entropy %v, want %v", res.Entropy, want.Entropy())
	}
}

func BenchmarkGlobalToLocalSwap(b *testing.B) {
	// The all-to-all is the paper's dominant cost at scale: benchmark one
	// full swap of 2^20 amplitudes across 8 ranks.
	c := supremacy(20, 9, 144, true)
	plan, err := schedule.Build(c, schedule.DefaultOptions(17))
	if err != nil {
		b.Fatal(err)
	}
	var swapOp *schedule.Op
	for i := range plan.Ops {
		if plan.Ops[i].Kind == schedule.OpSwap {
			swapOp = &plan.Ops[i]
			break
		}
	}
	if swapOp == nil {
		b.Skip("no swap in plan")
	}
	// Isolate the swap in a minimal plan.
	mini := &schedule.Plan{
		N: plan.N, L: plan.L,
		Ops:        []schedule.Op{*swapOp},
		InitialPos: plan.InitialPos,
		FinalPos:   plan.InitialPos,
	}
	b.SetBytes(int64(16 << 20))
	for i := 0; i < b.N; i++ {
		if _, err := Run(mini, Options{Ranks: 8, Init: InitUniform}); err != nil {
			b.Fatal(err)
		}
	}
}
