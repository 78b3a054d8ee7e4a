package main

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"qusim/internal/fsio"
)

// span is one timed call into a layer during the traced pass. Spans nest:
// parent is the index of the span that was open when this one began, −1 for
// a root (one root per traced rep).
type span struct {
	name       string // "<layer>.<what>", e.g. "statevec.cluster"
	kernel     string // kernel class for the roofline rows: "k1"…"k5", "diag", "perm", or ""
	start, end time.Duration
	parent     int
}

func (s *span) dur() time.Duration { return s.end - s.start }

// tracer keeps the spans of one child process in memory; they are written
// out once, when the benchmark ends. All spans come from the benchmark's own
// goroutine (the calls into each layer's public functions), so there is no
// locking. A nil *tracer is the untraced pass: do() just calls f.
type tracer struct {
	workload string
	epoch    time.Time
	spans    []span
	open     []int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// do runs f inside a span.
func (t *tracer) do(name, kernel string, f func()) {
	if t == nil {
		f()
		return
	}
	i := t.begin(name, kernel)
	f()
	t.finish(i)
}

func (t *tracer) begin(name, kernel string) int {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{name: name, kernel: kernel, parent: parent})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	t.spans[i].start = time.Since(t.epoch)
	return i
}

func (t *tracer) finish(i int) {
	t.spans[i].end = time.Since(t.epoch)
	t.open = t.open[:len(t.open)-1]
}

// selfTimes returns, per span, its duration minus the part its direct
// children cover.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i := range t.spans {
		self[i] += t.spans[i].dur()
		if p := t.spans[i].parent; p >= 0 {
			self[p] -= t.spans[i].dur()
		}
	}
	return self
}

// under reports whether span i lies inside root (or is root).
func (t *tracer) under(i, root int) bool {
	for ; i >= 0; i = t.spans[i].parent {
		if i == root {
			return true
		}
	}
	return false
}

// kernelTotals is the traced work of one kernel class inside one rep.
type kernelTotals struct {
	passes  int
	seconds float64
}

// repProfile sums one traced rep (the subtree under root) by span name and
// by kernel class. Self times are used throughout, so a second spent in a
// nested span is counted once, in the innermost layer.
type repProfile struct {
	wall    float64            // duration of the root span
	rootOwn float64            // root self time: not inside any layer span
	byName  map[string]float64 // self seconds per span name
	kernels map[string]kernelTotals
}

func (t *tracer) profile(root int) repProfile {
	p := repProfile{
		wall:    t.spans[root].dur().Seconds(),
		byName:  map[string]float64{},
		kernels: map[string]kernelTotals{},
	}
	self := t.selfTimes()
	for i := range t.spans {
		if !t.under(i, root) {
			continue
		}
		s := &t.spans[i]
		if i == root {
			p.rootOwn = self[i].Seconds()
			continue
		}
		p.byName[s.name] += self[i].Seconds()
		if s.kernel != "" {
			k := p.kernels[s.kernel]
			k.passes++
			k.seconds += self[i].Seconds()
			p.kernels[s.kernel] = k
		}
	}
	return p
}

// durationsOf returns the durations (seconds, sorted) of the spans called
// name under root.
func (t *tracer) durationsOf(name string, root int) []float64 {
	var out []float64
	for i := range t.spans {
		if t.spans[i].name == name && t.under(i, root) {
			out = append(out, t.spans[i].dur().Seconds())
		}
	}
	slices.Sort(out)
	return out
}

// writeChrome writes the spans as Chrome trace_event JSON (open it in
// chrome://tracing or https://ui.perfetto.dev). Each event carries its own
// index, its parent's index and the workload it belongs to.
func (t *tracer) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i := range t.spans {
		s := &t.spans[i]
		args := map[string]any{"id": i, "parent": s.parent, "workload": t.workload}
		if s.kernel != "" {
			args["kernel"] = s.kernel
		}
		events[i] = event{
			Name: s.name, Cat: layerOf(s.name), Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.dur()) / 1e3,
			Pid: 1, Tid: 1, Args: args,
		}
	}
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// writeFile writes the trace to path, through a temp file in the same
// directory so that a reader never sees half a trace.
func (t *tracer) writeFile(path string) (err error) {
	fs := fsio.OS{}
	f, err := fs.CreateTemp(filepath.Dir(path), ".trace-*")
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	defer func() {
		if err != nil {
			_ = fs.Remove(f.Name()) // best effort; err is the one to report
		}
	}()
	if err := t.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	if err := fs.Rename(f.Name(), path); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// layerOf returns the layer prefix of a span or metric name ("statevec" for
// "statevec.cluster").
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}
