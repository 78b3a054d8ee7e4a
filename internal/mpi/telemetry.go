package mpi

import (
	"fmt"
	"time"

	"qusim/internal/telemetry"
)

// commTID is the trace thread id the communication layer records under —
// each simulated rank is one trace process (pid = rank), with the engine
// on tid 0 and this layer on tid 1, so a rank's compute and communication
// stack on adjacent rows of the same timeline.
const commTID = 1

// worldTel holds the world's telemetry handles, resolved once in
// SetTelemetry so the per-collective path is pointer dereferences and
// atomic adds — no registry lookups, no allocation.
type worldTel struct {
	t *telemetry.Telemetry

	bytes       *telemetry.Counter // payload bytes crossing rank boundaries
	steps       *telemetry.Counter // collective communication steps
	verified    *telemetry.Counter // chunk checksums verified clean
	sumFailed   *telemetry.Counter // chunk checksums that did NOT verify
	watchArmed  *telemetry.Counter
	watchFired  *telemetry.Counter
	lat         map[string]*telemetry.Histogram // per-collective latency
	worldScope  *telemetry.Scope                // watchdog + world lifecycle events
	deadRank    *telemetry.Counter
	stallDetect *telemetry.Counter
}

// collectiveLabels are the collectives instrumented with latency
// histograms — the four a plan executes through — keyed by the label used in
// stall reports so the trace, the metrics dump and the error messages all
// speak the same names.
var collectiveLabels = map[string]string{
	"Barrier":          "mpi.barrier_ns",
	"GroupExchange":    "mpi.group_exchange_ns",
	"AllreduceSum":     "mpi.allreduce_sum_ns",
	"AllgatherFloat64": "mpi.allgather_float64_ns",
}

// SetTelemetry arms the world with a telemetry sink: every collective gets
// a per-rank trace span and a latency histogram observation, payload bytes
// and checksum verifications are counted, and the deadline watchdog's
// arm/disarm/expiry shows up as instant events. telemetry.Disabled (or
// nil) disarms instrumentation. Must be called before Run.
func (w *World) SetTelemetry(t *telemetry.Telemetry) {
	if !t.Enabled() {
		w.tel = nil
		return
	}
	wt := &worldTel{
		t:           t,
		bytes:       t.Counter("mpi.bytes"),
		steps:       t.Counter("mpi.steps"),
		verified:    t.Counter("mpi.checksums_verified"),
		sumFailed:   t.Counter("mpi.checksums_failed"),
		watchArmed:  t.Counter("mpi.watchdog_armed"),
		watchFired:  t.Counter("mpi.watchdog_expired"),
		deadRank:    t.Counter("mpi.dead_ranks_detected"),
		stallDetect: t.Counter("mpi.stalls_detected"),
		lat:         make(map[string]*telemetry.Histogram, len(collectiveLabels)),
		worldScope:  t.Scope(telemetry.WatchdogPID, 0, "mpi transport", "watchdog"),
	}
	for label, metric := range collectiveLabels {
		wt.lat[label] = t.Histogram(metric)
	}
	w.tel = wt
}

// commScope opens rank's communication timeline for one Run. Restart
// attempts reuse the same (pid, tid), merging onto one timeline.
func (w *World) commScope(rank int) *telemetry.Scope {
	if w.tel == nil {
		return nil
	}
	return w.tel.t.Scope(rank, commTID, fmt.Sprintf("rank %d", rank), "comm")
}

// collStart returns the collective entry time when telemetry is armed, the
// zero time otherwise — so the disabled path never reads the clock.
func (c *Comm) collStart() time.Time {
	if c.tel == nil {
		return time.Time{}
	}
	return time.Now()
}

// collEnd closes a collective's instrumentation: one latency observation
// plus one span on the rank's comm timeline, both from the same clock pair.
func (c *Comm) collEnd(label string, t0 time.Time) {
	if c.tel == nil {
		return
	}
	d := time.Since(t0)
	c.tel.lat[label].Observe(int64(d))
	c.scope.Complete("mpi", label, t0, d)
}

// countBytes records payload bytes that crossed a rank boundary in both
// the exact Traffic accounting and the telemetry counter.
func (c *Comm) countBytes(n int64) {
	c.w.Traffic.Bytes.Add(n)
	if c.tel != nil {
		c.tel.bytes.Add(n)
	}
}

// countSteps records collective communication steps (called from a single
// rank per round, like Traffic.Steps).
func (c *Comm) countSteps(n int64) {
	c.w.Traffic.Steps.Add(n)
	if c.tel != nil {
		c.tel.steps.Add(n)
	}
}
