package ckpt

import (
	"sync/atomic"
	"time"

	"qusim/internal/telemetry"
)

// tel is the package's telemetry sink. Checkpoint I/O happens from rank
// goroutines and the oocvec chunk stream, both of which reach this package
// through free functions, so the hook is process-global like par's: one
// atomic pointer read per shard open/close when disarmed.
var tel atomic.Pointer[telemetry.Telemetry]

// SetTelemetry arms (or, with nil / telemetry.Disabled, disarms) shard
// write/restore throughput metrics: byte and shard counters plus duration
// histograms for writes, reads (restore and verification walks both count
// — FindRestorable streams every shard it audits) and manifest commits.
func SetTelemetry(t *telemetry.Telemetry) {
	if !t.Enabled() {
		tel.Store(nil)
		return
	}
	tel.Store(t)
}

// telShard records one completed shard write or read (op "write" or
// "read": a restore or a verification walk) of n payload amplitudes that
// took the time since t0.
func telShard(op string, t0 time.Time, n int) {
	t := tel.Load()
	if t == nil {
		return
	}
	t.Counter("ckpt.shard_" + op + "s").Inc()
	t.Counter("ckpt.shard_" + op + "_bytes").Add(int64(n) * ampBytes)
	t.Histogram("ckpt.shard_" + op + "_ns").ObserveSince(t0)
}
