package telemetry

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds named metrics. Lookup/creation takes a lock and is meant
// for setup paths; the returned handles are lock-free atomics the hot path
// updates without allocation. All methods are nil-safe.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n. No-op on nil.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one. No-op on nil.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores v. No-op on nil.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by delta. No-op on nil.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// SetMax raises the gauge to v if v exceeds the current value — a
// high-water mark updated lock-free from any goroutine. No-op on nil.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the fixed bucket count: bucket 0 holds zero observations,
// bucket b ≥ 1 holds values in [2^(b-1), 2^b). 63 value buckets cover the
// whole non-negative int64 range, so nanosecond durations up to ~292 years
// land somewhere without saturation logic on the hot path.
const histBuckets = 64

// Histogram is a fixed-geometry log2 histogram: one atomic add per
// observation, no allocation, no locks. Values are int64 (the repo uses
// nanoseconds throughout); negative observations clamp to zero.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one value. No-op on nil.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveSince records the nanoseconds elapsed since t0. No-op on nil.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h != nil {
		h.Observe(int64(time.Since(t0)))
	}
}

// Count returns the number of observations (0 on nil).
//
//qlint:ignore deadcode an observation point: tests in six packages read it to prove their spans were recorded; the dump prints the count itself
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 on nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile returns an upper bound for the q-quantile (0 ≤ q ≤ 1): the
// upper edge of the log2 bucket the quantile observation falls in. The
// estimate is conservative by at most 2×, which is plenty for "did the
// p99 collective latency double" questions.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total-1))
	var seen int64
	for b := 0; b < histBuckets; b++ {
		seen += h.buckets[b].Load()
		if seen > rank {
			return bucketUpper(b)
		}
	}
	return bucketUpper(histBuckets - 1)
}

// bucketUpper is the exclusive upper edge of bucket b.
func bucketUpper(b int) int64 {
	if b == 0 {
		return 0
	}
	if b >= 63 {
		return 1<<63 - 1
	}
	return 1 << b
}

// snapshot types used by the text dump; values are read once so a dump is
// internally consistent per metric even while the hot path keeps counting.
type histStat struct {
	count, sum    int64
	p50, p99, max int64
}

func (h *Histogram) stat() histStat {
	s := histStat{count: h.count.Load(), sum: h.sum.Load()}
	s.p50 = h.Quantile(0.50)
	s.p99 = h.Quantile(0.99)
	s.max = h.Quantile(1)
	return s
}

// WriteMetrics renders every registered metric as plain text, one metric
// per line, sorted by name within each kind — the `qsim -metrics` dump.
//
//	counter   mpi.bytes                 25165824
//	gauge     par.pool_size             7
//	histogram mpi.group_exchange_ns     count=12 sum=8123456 mean=676954 p50<=1048576 p99<=2097152 max<=2097152
func (t *Telemetry) WriteMetrics(w io.Writer) error {
	if t == nil {
		_, err := fmt.Fprintln(w, "telemetry disabled")
		return err
	}
	return t.reg.Write(w)
}

// Write renders the registry as plain text (see Telemetry.WriteMetrics).
func (r *Registry) Write(w io.Writer) error {
	r.mu.Lock()
	counters := sortedKeys(r.counters)
	gauges := sortedKeys(r.gauges)
	hists := sortedKeys(r.hists)
	r.mu.Unlock()

	for _, name := range counters {
		if _, err := fmt.Fprintf(w, "counter   %-32s %d\n", name, r.Counter(name).Value()); err != nil {
			return err
		}
	}
	for _, name := range gauges {
		if _, err := fmt.Fprintf(w, "gauge     %-32s %d\n", name, r.Gauge(name).Value()); err != nil {
			return err
		}
	}
	for _, name := range hists {
		s := r.Histogram(name).stat()
		mean := int64(0)
		if s.count > 0 {
			mean = s.sum / s.count
		}
		if _, err := fmt.Fprintf(w, "histogram %-32s count=%d sum=%d mean=%d p50<=%d p99<=%d max<=%d\n",
			name, s.count, s.sum, mean, s.p50, s.p99, s.max); err != nil {
			return err
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
