package ckpt

import (
	"sync"
	"sync/atomic"

	"qusim/internal/fsio"
	"qusim/internal/telemetry"
)

// Snapshot is the checkpoint of one stage boundary while its shards are
// written: every engine tees the units it holds into it — a rank its shard,
// the paged reader the chunks in plan order — and one caller commits it once
// every unit is in. Shard i is 2^L amplitudes and opens with its first tee
// and closes with its last, so a shard written in one piece and one teed
// chunk by chunk are the same bytes.
//
// A snapshot from Writer.At is droppable: an ENOSPC that persists past the
// prune retry (retryNoSpace) drops the whole boundary — the shard aborted,
// and at commit (or abort) every shard file of the boundary discarded and the
// drop counted — and the run goes on, a missed snapshot costing only a
// longer replay after a restart. A snapshot from Writer.Snapshot returns the
// ENOSPC instead.
//
// Distinct shards may be teed concurrently; Commit must follow every tee.
type Snapshot struct {
	w         *Writer
	meta      Meta
	droppable bool
	writers   []*shardWriter
	shards    []ShardInfo
	dropped   atomic.Bool
	once      sync.Once
	err       error // Commit's outcome
}

// Snapshot begins the snapshot of the boundary before stage next, whether
// or not the policy names it; a disk that stays full fails it.
func (w *Writer) Snapshot(next int) *Snapshot {
	m := w.meta
	m.NextStage = next
	return &Snapshot{w: w, meta: m, writers: make([]*shardWriter, m.Ranks), shards: make([]ShardInfo, m.Ranks)}
}

// Tee appends raw, the memory (kernels.AmpBytes) of the next amplitudes in
// plan order, to the given shard; on a nil Snapshot, nothing: none is due.
func (s *Snapshot) Tee(shard int, raw []byte) error {
	if s == nil {
		return nil
	}
	sw := s.writers[shard]
	if sw == nil {
		var err error
		if sw, err = s.w.newShardWriter(s.meta, shard, 1<<s.meta.L); err != nil {
			s.writers[shard] = &shardWriter{closed: true}
			return s.absorb(err)
		}
		s.writers[shard] = sw
	}
	if sw.closed {
		return nil // dropped
	}
	err := sw.Write(raw)
	if err == nil && sw.got == sw.want {
		s.shards[shard], err = sw.Close()
	}
	if err != nil {
		sw.Abort()
	}
	return s.absorb(err)
}

// Commit makes the snapshot restorable — the manifest, the commit point of
// the protocol (package comment) — or, when it was dropped, discards the
// boundary's shard files. Every call returns the first call's outcome, so
// ranks that leave the commit to one of them read it after a barrier.
func (s *Snapshot) Commit() error {
	if s == nil {
		return nil
	}
	s.once.Do(func() { s.err = s.end(true) })
	return s.err
}

// Abort discards the shards still being written, after a failure that ends
// the run before Commit. Call it once every tee has returned.
func (s *Snapshot) Abort() {
	if s == nil {
		return
	}
	for _, sw := range s.writers {
		if sw != nil {
			sw.Abort()
		}
	}
	s.once.Do(func() { s.end(false) })
}

// end ends the snapshot, once: it commits it (when asked to and it was not
// dropped) or discards a dropped boundary's files, and counts the outcome.
func (s *Snapshot) end(commitIt bool) error {
	var err error
	if commitIt && !s.dropped.Load() {
		_, err = s.w.commit(s.meta, s.shards)
		err = s.absorb(err)
	}
	switch {
	case s.dropped.Load():
		s.w.discardStage(s.meta.NextStage)
		s.w.skipped.Add(1)
		s.w.tel.Counter("ckpt.skipped").Inc()
	case commitIt && err == nil:
		s.w.written.Add(1)
	}
	return err
}

// absorb applies the drop policy to the outcome of a write.
func (s *Snapshot) absorb(err error) error {
	if err == nil || !s.droppable || !fsio.IsNoSpace(err) {
		return err
	}
	s.dropped.Store(true)
	return nil
}

// Writer is the checkpoint handle of one run: it writes the run's snapshots
// — the boundaries its Policy names, under the run's identity, one Snapshot
// per boundary however many units feed it — counts those committed and
// dropped, and finds and reads back the snapshot a run resumes from. All of
// it runs in Policy.Dir on Policy.FS, and every ckpt.* metric goes to the
// writer's telemetry.
type Writer struct {
	pol  *Policy
	fs   fsio.FS
	meta Meta
	tel  *telemetry.Telemetry

	mu  sync.Mutex
	cur *Snapshot

	written, skipped atomic.Int64
}

// NewWriter returns the writer of a run of the plan meta identifies (its
// NextStage is ignored, and an AmpBytes of 16 is written as 0), or nil,
// which writes nothing, for a nil policy. tel (nil: disabled) receives the
// run's ckpt.* metrics: shard writes and reads, commits, prune failures,
// disk-full prunes and dropped boundaries.
func NewWriter(pol *Policy, meta Meta, tel *telemetry.Telemetry) *Writer {
	if pol == nil {
		return nil
	}
	fs := pol.FS
	if fs == nil {
		fs = fsio.OS{}
	}
	meta.AmpBytes %= 16
	return &Writer{pol: pol, fs: fs, meta: meta, tel: tel}
}

// At returns the snapshot of the boundary before stage next when Policy.Due
// names it for a run of stages stages started at start, and nil otherwise.
// Every caller asking for one boundary gets the same Snapshot.
func (w *Writer) At(next, start, stages int) *Snapshot {
	if w == nil || !w.pol.Due(next, start, stages) {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.cur == nil || w.cur.meta.NextStage != next {
		w.cur = w.Snapshot(next)
		w.cur.droppable = true
	}
	return w.cur
}

// Counts returns how many of the writer's snapshots committed and how many
// were dropped.
func (w *Writer) Counts() (written, skipped int) {
	if w == nil {
		return 0, 0
	}
	return int(w.written.Load()), int(w.skipped.Load())
}
