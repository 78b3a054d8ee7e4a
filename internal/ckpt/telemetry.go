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

// telWriteDone records one completed shard write of n payload amplitudes
// that took the duration since t0.
func telWriteDone(t0 time.Time, n int) {
	t := tel.Load()
	if t == nil {
		return
	}
	t.Counter("ckpt.shard_writes").Inc()
	t.Counter("ckpt.shard_write_bytes").Add(int64(n) * ampBytes)
	t.Histogram("ckpt.shard_write_ns").ObserveSince(t0)
}

// telReadDone records one completed shard read (restore or verify).
func telReadDone(t0 time.Time, n int) {
	t := tel.Load()
	if t == nil {
		return
	}
	t.Counter("ckpt.shard_reads").Inc()
	t.Counter("ckpt.shard_read_bytes").Add(int64(n) * ampBytes)
	t.Histogram("ckpt.shard_read_ns").ObserveSince(t0)
}

// telCommitDone records one committed manifest.
func telCommitDone(t0 time.Time) {
	t := tel.Load()
	if t == nil {
		return
	}
	t.Counter("ckpt.commits").Inc()
	t.Histogram("ckpt.commit_ns").ObserveSince(t0)
}

// telPruneFailed counts one failed snapshot-file removal (prune,
// pruneOldest or DiscardStage). The run is unaffected — retention just
// exceeds the policy — but a growing counter means the directory is
// filling up with undeletable snapshots.
func telPruneFailed() {
	t := tel.Load()
	if t == nil {
		return
	}
	t.Counter("ckpt.prune_failures").Inc()
}
