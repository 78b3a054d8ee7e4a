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
// A Writer's snapshot is droppable: an ENOSPC that persists past the prune
// retry (retryNoSpace) drops the whole boundary — the shard aborted, and at
// commit (or abort) every shard file of the boundary discarded and the drop
// counted — and the run goes on, a missed snapshot costing only a longer
// replay after a restart. A snapshot from NewSnapshot returns the ENOSPC
// instead.
//
// Distinct shards may be teed concurrently; Commit must follow every tee.
type Snapshot struct {
	dir     string
	meta    Meta
	keep    int
	w       *Writer // nil: not droppable
	writers []*shardWriter
	shards  []ShardInfo
	dropped atomic.Bool
	once    sync.Once
	err     error // Commit's outcome
}

// NewSnapshot begins the snapshot of the boundary meta.NextStage in dir,
// keeping the newest keep snapshots once it commits.
func NewSnapshot(dir string, meta Meta, keep int) *Snapshot {
	return &Snapshot{dir: dir, meta: meta, keep: keep,
		writers: make([]*shardWriter, meta.Ranks), shards: make([]ShardInfo, meta.Ranks)}
}

// Tee appends amps, the next amplitudes in plan order, to the given shard.
// Like every method, it does nothing on a nil Snapshot: no snapshot is due.
func (s *Snapshot) Tee(shard int, amps []complex128) error {
	if s == nil {
		return nil
	}
	sw := s.writers[shard]
	if sw == nil {
		var err error
		if sw, err = newShardWriter(s.dir, s.meta, shard, 1<<s.meta.L); err != nil {
			s.writers[shard] = &shardWriter{closed: true}
			return s.absorb(err)
		}
		s.writers[shard] = sw
	}
	if sw.closed {
		return nil // dropped
	}
	err := sw.Write(amps)
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
		_, err = commit(s.dir, s.meta, s.shards, s.keep)
		err = s.absorb(err)
	}
	switch {
	case s.dropped.Load():
		discardStage(s.dir, s.meta.NextStage)
		s.w.skipped.Add(1)
		s.w.tel.Counter("ckpt.skipped").Inc()
	case commitIt && err == nil && s.w != nil:
		s.w.written.Add(1)
	}
	return err
}

// absorb applies the drop policy to the outcome of a write.
func (s *Snapshot) absorb(err error) error {
	if err == nil || s.w == nil || !fsio.IsNoSpace(err) {
		return err
	}
	s.dropped.Store(true)
	return nil
}

// Writer writes the snapshots of one run: the boundaries its Policy names,
// under the run's identity, one Snapshot per boundary however many units
// feed it, and the count of those committed and dropped.
type Writer struct {
	pol  *Policy
	meta Meta
	tel  *telemetry.Telemetry

	mu  sync.Mutex
	cur *Snapshot

	written, skipped atomic.Int64
}

// NewWriter returns the writer of a run of the plan meta identifies (its
// NextStage is ignored), or nil, which writes nothing, for a nil policy. tel
// counts the dropped boundaries in ckpt.skipped.
func NewWriter(pol *Policy, meta Meta, tel *telemetry.Telemetry) *Writer {
	if pol == nil {
		return nil
	}
	return &Writer{pol: pol, meta: meta, tel: tel}
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
		m := w.meta
		m.NextStage = next
		w.cur = NewSnapshot(w.pol.Dir, m, w.pol.Keep)
		w.cur.w = w
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
