package ckpt

import (
	"testing"

	"qusim/internal/kernels"
	"qusim/internal/telemetry"
)

// TestTelemetryShardIO asserts a writer's telemetry records shard
// write/read throughput and manifest commits, and that a writer without
// telemetry counts nothing there.
func TestTelemetryShardIO(t *testing.T) {
	tel := telemetry.New()
	dir := t.TempDir()
	w := NewWriter(&Policy{Dir: dir}, testMeta(0), tel)
	m := writeCheckpoint(t, w, 1)
	amps := make([]complex128, 1<<m.L)
	for r := 0; r < m.Ranks; r++ {
		if err := w.StreamShard(m, r, kernels.AmpBytes(amps), nil); err != nil {
			t.Fatal(err)
		}
	}

	wantBytes := int64(m.Ranks) * int64(len(amps)) * 16
	if got := tel.Counter("ckpt.shard_writes").Value(); got != int64(m.Ranks) {
		t.Errorf("shard_writes = %d, want %d", got, m.Ranks)
	}
	if got := tel.Counter("ckpt.shard_write_bytes").Value(); got != wantBytes {
		t.Errorf("shard_write_bytes = %d, want %d", got, wantBytes)
	}
	if got := tel.Counter("ckpt.shard_reads").Value(); got != int64(m.Ranks) {
		t.Errorf("shard_reads = %d, want %d", got, m.Ranks)
	}
	if got := tel.Counter("ckpt.shard_read_bytes").Value(); got != wantBytes {
		t.Errorf("shard_read_bytes = %d, want %d", got, wantBytes)
	}
	if got := tel.Counter("ckpt.commits").Value(); got != 1 {
		t.Errorf("commits = %d, want 1", got)
	}
	for _, metric := range []string{"ckpt.shard_write_ns", "ckpt.shard_read_ns", "ckpt.commit_ns"} {
		if tel.Histogram(metric).Count() == 0 {
			t.Errorf("%s has no observations", metric)
		}
	}

	// Another writer's I/O must not count here.
	writeCheckpoint(t, osWriter(dir), 2)
	if got := tel.Counter("ckpt.shard_writes").Value(); got != int64(m.Ranks) {
		t.Errorf("shard_writes moved to %d by a writer without telemetry", got)
	}
}
