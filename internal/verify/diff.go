package verify

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"sort"
	"strings"

	"qusim/internal/circuit"
)

// The differential engine: every candidate backend is compared against a
// reference backend on the same circuit, amplitude-for-amplitude. This is
// the validation strategy of the paper's lineage — qHiPSTER and the
// distributed-memory surveys check optimized paths against a naive dense
// reference — applied systematically across all of this repo's execution
// paths.

// PairStat aggregates one reference↔backend pair across the matrix.
type PairStat struct {
	Backend  string
	Circuits int     // circuits actually compared
	Skipped  int     // circuits the backend reported ErrUnsupported for
	MaxDelta float64 // worst max-amplitude delta seen
	MaxFid   float64 // worst |1 − fidelity| seen
	Failures int     // comparisons above tolerance
}

// Divergence records one above-tolerance disagreement, with a minimized
// replayable reproducer.
type Divergence struct {
	Circuit  string  // name of the original circuit
	Backend  string  // diverging backend (vs. the reference)
	MaxDelta float64 // on the original circuit
	FidDelta float64
	// Reproducer is the minimized circuit in the GRCS-like text format of
	// circuit.WriteText (or String() form if custom gates prevent
	// serialization).
	Reproducer      string
	ReproducerGates int
}

// Engine runs circuits through every backend pair and accumulates
// statistics and divergences.
type Engine struct {
	Ref      Backend
	Backends []Backend
	// Tol is the max-amplitude-delta tolerance; the acceptance bar for this
	// repo is 1e-10.
	Tol float64

	// Title heads the summary table ("differential matrix" when empty).
	Title string

	Circuits    int
	Pairs       map[string]*PairStat
	Divergences []Divergence
}

// NewEngine returns an engine comparing each backend against ref.
func NewEngine(ref Backend, backends []Backend, tol float64) *Engine {
	return &Engine{
		Ref: ref, Backends: backends, Tol: tol,
		Pairs: make(map[string]*PairStat),
	}
}

// Check runs c through the reference and every backend, recording deltas
// and divergences. It returns an error only on harness-level failures
// (a backend erroring on a circuit it should support); divergences are
// recorded, not returned.
func (e *Engine) Check(c *circuit.Circuit) error {
	want, err := e.Ref.Run(c)
	if err != nil {
		return fmt.Errorf("verify: reference %s failed on %s: %w", e.Ref.Name(), c.Name, err)
	}
	e.Circuits++
	for _, b := range e.Backends {
		st := e.Pairs[b.Name()]
		if st == nil {
			st = &PairStat{Backend: b.Name()}
			e.Pairs[b.Name()] = st
		}
		got, err := b.Run(c)
		if errors.Is(err, ErrUnsupported) {
			st.Skipped++
			continue
		}
		if err != nil {
			return fmt.Errorf("verify: backend %s failed on %s: %w", b.Name(), c.Name, err)
		}
		st.Circuits++
		d := MaxAmpDelta(want, got)
		fd := FidelityDelta(want, got)
		if d > st.MaxDelta {
			st.MaxDelta = d
		}
		if fd > st.MaxFid {
			st.MaxFid = fd
		}
		if d > e.Tol {
			st.Failures++
			div := Divergence{
				Circuit: c.Name, Backend: b.Name(), MaxDelta: d, FidDelta: fd,
			}
			repro := e.minimize(c, b)
			div.Reproducer = CircuitText(repro)
			div.ReproducerGates = len(repro.Gates)
			e.Divergences = append(e.Divergences, div)
		}
	}
	return nil
}

// Failed reports whether any comparison diverged above tolerance.
func (e *Engine) Failed() bool { return len(e.Divergences) > 0 }

// PairList returns the per-pair statistics sorted by backend name.
func (e *Engine) PairList() []*PairStat {
	out := make([]*PairStat, 0, len(e.Pairs))
	for _, st := range e.Pairs {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Backend < out[j].Backend })
	return out
}

// MaxAmpDelta returns max_b |a_b − b_b| — the paper-style elementwise
// comparison bound.
func MaxAmpDelta(a, b []complex128) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var m float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// FidelityDelta returns |1 − |⟨a|b⟩|²| — a global-phase-insensitive
// secondary signal that distinguishes phase-only drift from genuine
// amplitude corruption.
func FidelityDelta(a, b []complex128) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var ip complex128
	for i := range a {
		ip += cmplx.Conj(a[i]) * b[i]
	}
	return math.Abs(1 - (real(ip)*real(ip) + imag(ip)*imag(ip)))
}

// minimize shrinks a diverging circuit with greedy delta debugging: try
// deleting gate chunks of halving size while the divergence persists. The
// result is 1-minimal with respect to single-gate removal.
func (e *Engine) minimize(c *circuit.Circuit, b Backend) *circuit.Circuit {
	diverges := func(cand *circuit.Circuit) bool {
		want, err := e.Ref.Run(cand)
		if err != nil {
			return false
		}
		got, err := b.Run(cand)
		if err != nil {
			return false
		}
		return MaxAmpDelta(want, got) > e.Tol
	}
	cur := c
	for chunk := (len(cur.Gates) + 1) / 2; chunk >= 1; chunk /= 2 {
		for start := 0; start+chunk <= len(cur.Gates); {
			cand := withoutGates(cur, start, start+chunk)
			if diverges(cand) {
				cur = cand // keep the smaller circuit; retry same offset
			} else {
				start += chunk
			}
		}
	}
	return cur
}

// withoutGates returns a copy of c with gates [lo, hi) removed.
func withoutGates(c *circuit.Circuit, lo, hi int) *circuit.Circuit {
	out := circuit.NewCircuit(c.N)
	out.Name = c.Name + "-min"
	out.Gates = append(out.Gates, c.Gates[:lo]...)
	out.Gates = append(out.Gates, c.Gates[hi:]...)
	return out
}

// CircuitText renders c in the replayable text format, falling back to the
// debug listing when custom-matrix gates block serialization.
func CircuitText(c *circuit.Circuit) string {
	var buf bytes.Buffer
	if err := circuit.WriteText(&buf, c); err != nil {
		return c.String()
	}
	return buf.String()
}

// Summary renders the pair statistics as an aligned table.
func (e *Engine) Summary() string {
	var b strings.Builder
	title := e.Title
	if title == "" {
		title = "differential matrix"
	}
	fmt.Fprintf(&b, "%s: %d circuits × %d backend pairs (ref %s, tol %.1e)\n",
		title, e.Circuits, len(e.Backends), e.Ref.Name(), e.Tol)
	for _, st := range e.PairList() {
		status := "ok"
		if st.Failures > 0 {
			status = fmt.Sprintf("%d DIVERGED", st.Failures)
		}
		fmt.Fprintf(&b, "  %-28s circuits=%-3d skipped=%-3d maxΔamp=%.2e max|1-F|=%.2e  %s\n",
			st.Backend, st.Circuits, st.Skipped, st.MaxDelta, st.MaxFid, status)
	}
	return b.String()
}
