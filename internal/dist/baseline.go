package dist

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"time"

	"qusim/internal/circuit"
	"qusim/internal/kernels"
	"qusim/internal/mpi"
	"qusim/internal/schedule"
	"qusim/internal/statevec"
	"qusim/internal/telemetry"
)

// BaselineOptions configures RunBaseline.
type BaselineOptions struct {
	Ranks int
	Init  InitState
	// Specialize2Q / Specialize1Q run diagonal gates on global qubits
	// without communication, as in [5]. With both false every global gate
	// communicates (the [19] scheme).
	Specialize2Q bool
	Specialize1Q bool
	GatherState  bool
	// Faults arms deterministic fault injection in the MPI layer (see
	// dist.Options.Faults); it exercises the pairwise-exchange path here.
	Faults *mpi.FaultPlan
	// Telemetry arms per-rank collective spans and latency histograms in
	// the MPI layer (the per-gate scheme has no stage structure to trace).
	Telemetry *telemetry.Telemetry
}

// RunBaseline executes the circuit gate by gate with the fixed layout
// qubit q ↔ bit location q, communicating for every dense gate on a global
// qubit via two pairwise exchanges of half the local state vector — the
// scheme of [19] as used by the state of the art [5] that Table 2 compares
// against. Dense gates on global qubits must be single-qubit (all the
// supremacy circuits' dense gates are).
func RunBaseline(c *circuit.Circuit, opts BaselineOptions) (*Result, error) {
	ranks := opts.Ranks
	if ranks < 1 || ranks&(ranks-1) != 0 {
		return nil, fmt.Errorf("dist: rank count %d is not a power of two", ranks)
	}
	g := bits.TrailingZeros(uint(ranks))
	l := c.N - g
	if l < 1 {
		return nil, fmt.Errorf("dist: %d ranks leave no local qubits for n=%d", ranks, c.N)
	}
	localLen := 1 << l

	res := &Result{Ranks: ranks, LocalQubits: l}
	if opts.GatherState {
		res.Amplitudes = make([]complex128, 1<<c.N)
	}
	w := mpi.NewWorld(ranks)
	if opts.Faults != nil {
		w.InjectFaults(opts.Faults)
	}
	w.SetTelemetry(opts.Telemetry)
	var mu sync.Mutex

	specialized := func(gt *circuit.Gate) bool {
		if !gt.IsDiagonal() {
			return false
		}
		if gt.K() == 1 {
			return opts.Specialize1Q
		}
		return opts.Specialize2Q
	}

	err := w.Run(func(cm *mpi.Comm) error {
		local := make([]complex128, localLen)
		scratch := make([]complex128, localLen)
		switch opts.Init {
		case InitZero:
			if cm.Rank() == 0 {
				local[0] = 1
			}
		case InitUniform:
			a := complex(math.Pow(2, -float64(c.N)/2), 0)
			for i := range local {
				local[i] = a
			}
		}
		// A diagonal gate runs as the one-op plan the scheduler would emit for
		// it under the fixed layout: the rank's bits select the sub-diagonal
		// (Sec. 3.5), no communication.
		sh := schedule.Shard[complex128]{Amps: local, L: l, Index: cm.Rank()}
		diagonal := func(gt *circuit.Gate) error {
			op := schedule.DiagonalOp(gt, func(q int) int { return q })
			return sh.Apply(&op)
		}
		start := time.Now()
		var commTime time.Duration

		for gi := range c.Gates {
			gt := &c.Gates[gi]
			global := false
			for _, q := range gt.Qubits {
				if q >= l {
					global = true
					break
				}
			}
			switch {
			case !global:
				sv := statevec.FromAmplitudes(local)
				sv.Apply(gt.Matrix(), gt.Qubits...)
			case specialized(gt):
				if err := diagonal(gt); err != nil {
					return err
				}
			case gt.K() == 1:
				t0 := time.Now()
				applyGlobalDense1Q(cm, gt, local, scratch, l)
				commTime += time.Since(t0)
				if cm.Rank() == 0 {
					cm.AddSteps(1)
				}
			case gt.IsDiagonal():
				// Diagonal but specialization disabled: still executable
				// without data movement by construction, but the [19]
				// scheme would communicate; we execute it diagonally and
				// charge one step, mirroring its cost accounting.
				if err := diagonal(gt); err != nil {
					return err
				}
				if cm.Rank() == 0 {
					cm.AddSteps(1)
				}
			default:
				return fmt.Errorf("dist: baseline scheme cannot execute dense %d-qubit gate %v on global qubits", gt.K(), gt)
			}
		}

		t0 := time.Now()
		norm, ent := kernels.NormEntropy(local)
		norm = cm.AllreduceSum(norm)
		ent = cm.AllreduceSum(ent)
		commTime += time.Since(t0)
		elapsed := time.Since(start)

		mu.Lock()
		res.Norm = norm
		res.Entropy = ent
		if elapsed > res.Elapsed {
			res.Elapsed = elapsed
		}
		if commTime > res.CommElapsed {
			res.CommElapsed = commTime
		}
		if opts.GatherState {
			copy(res.Amplitudes[cm.Rank()<<l:], local)
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.CommSteps = int(w.Traffic.Steps.Load())
	res.CommBytes = w.Traffic.Bytes.Load()
	res.FaultEvents = w.FaultEvents()
	return res, nil
}

// applyGlobalDense1Q applies a dense single-qubit gate on a global qubit
// with the two pairwise half-vector exchanges of [19]: the bit-0 partner
// computes the pairs of the lower half-indices, the bit-1 partner the upper
// half, and the results are exchanged back.
//
//qlint:ignore collectiveorder both arms issue the same two PairExchange calls with the same partner; the rank branch only selects which half travels, so the collective sequence stays rank-uniform
func applyGlobalDense1Q(cm *mpi.Comm, gt *circuit.Gate, local, scratch []complex128, l int) {
	m := gt.Matrix()
	m00, m01, m10, m11 := m.Data[0], m.Data[1], m.Data[2], m.Data[3]
	p := gt.Qubits[0] - l
	partner := cm.Rank() ^ (1 << p)
	half := len(local) / 2
	if cm.Rank()&(1<<p) == 0 {
		// Exchange 1: my upper half for the partner's lower half.
		cm.PairExchange(partner, local[half:], scratch[:half])
		for i := 0; i < half; i++ {
			a0, a1 := local[i], scratch[i]
			local[i] = m00*a0 + m01*a1
			scratch[i] = m10*a0 + m11*a1
		}
		// Exchange 2: return the partner's new a1 values, receive my new
		// a0 values for the upper half.
		cm.PairExchange(partner, scratch[:half], local[half:])
	} else {
		cm.PairExchange(partner, local[:half], scratch[half:])
		for i := half; i < len(local); i++ {
			a0, a1 := scratch[i], local[i]
			scratch[i] = m00*a0 + m01*a1
			local[i] = m10*a0 + m11*a1
		}
		cm.PairExchange(partner, scratch[half:], local[:half])
	}
}
