// Package oocvec implements an out-of-core (file-backed) state vector —
// the Sec. 5 outlook of Häner & Steiger, SC'17: because the scheduled
// circuits need only two all-to-alls, "the low amount of communication may
// allow the use of, e.g., solid-state drives" for states larger than
// memory (8 PB for 49 qubits).
//
// The state is divided into 2^g chunks of 2^l amplitudes; chunk-index bits
// play the role of the global qubits. Gates on in-chunk positions stream
// chunk by chunk (one read + write pass); diagonal gates on chunk bits
// specialize exactly like global gates. The global-to-local swap, the
// all-to-all of a rank-sharded state, moves no data here: a chunk is only a
// set of file offsets, so the swap renumbers instead (the paper's
// "CNOT-renumbering", Sec. 3.5) — the layout records at which bit of the
// file offset each plan location lives, and the swap trades two entries per
// exchanged pair. A chunk whose low locations no longer sit at their own
// bits is read and written as runs of contiguous amplitudes, and the
// writeback joins the runs of neighbouring chunks that the file holds side
// by side into one request.
//
// The vector is a dist.Store: a run is dist.Run on the one rank of a world
// that holds the vector (dist.Options.Store), so its attempts, restarts,
// reduction, sampler and profile are dist's. Execution is circuit-aware: the
// plan's stage cut (schedule.Plan.AccessMap, compiled by
// schedule.Shard.Stages) tells the engine, before any I/O happens, what every
// upcoming stage applies and exchanges. Each stage's local ops run as a
// single streamed pass (pipeline.go), applied chunk by chunk through the
// shard applier every back end shares (schedule.Shard); a prefetch depth
// (SetPrefetch) overlaps that pass with asynchronous read-ahead and
// writeback, and depth 0 runs the same pass with one buffer and no overlap.
// Every depth is bitwise identical to Plan.Run.
//
// The state file is one process's scratch — a crash resumes from a ckpt
// snapshot, never from it — so it holds amplitudes in the host's byte order,
// in the vector's own layout, and chunk I/O goes through kernels.AmpBytes
// views of amplitude memory: there is no encoded form of a chunk, only
// snapshots (in plan order) are portable.
//
// The file is streamed only for state the vector cannot compute. Create
// writes nothing: until a stage has written every chunk, a read of a chunk
// computes it from the start state (statevec.Fill, as a rank fills its
// shard), so the first stage reads nothing either. A stage that closes
// without a swap — the last of every plan Build makes — sums the norm and
// entropy of each chunk between compute and writeback, in chunk order, and
// the vector keeps the pair until the file next changes: dist's reduction,
// Norm, Entropy and NormEntropy read it instead of the file.
package oocvec

import (
	"fmt"
	"time"

	"qusim/internal/ckpt"
	"qusim/internal/fsio"
	"qusim/internal/kernels"
	"qusim/internal/schedule"
	"qusim/internal/statevec"
	"qusim/internal/telemetry"
)

// Vector is an n-qubit state stored in a file, processed in 2^l-amplitude
// chunks.
type Vector struct {
	N int // total qubits
	L int // in-memory chunk holds 2^L amplitudes

	fs fsio.FS   // file-ops seam of the state file, given at Create
	f  fsio.File // backing file
	// loc[p] is the bit of the file offset (in amplitudes) at which plan
	// location p lives; the identity until a swap trades two entries.
	loc []int
	// pool holds the stage pipeline's chunks, kept from stage to stage;
	// pool[0] also serves the unit visits, snapshots and restores, none of
	// which runs during a stage.
	pool [][]complex128
	// staging gathers the writeback of a group of chunks whose runs sit
	// side by side in the file (pipeline.go): at most 2^writeGroupBits
	// chunks and never more than the pool, allocated by the first stage
	// that combines and kept ever after.
	staging []complex128

	start statevec.Start // the start state: Create's, or the one Load last re-armed
	// fresh says the file holds nothing yet: it stands for start, and a read
	// of a chunk computes it instead, until a stage has written every chunk.
	fresh bool
	// kept says norm and entropy are the state's, summed chunk by chunk in
	// plan order by the pass that computed them, and nothing has changed
	// the file or its layout since.
	kept          bool
	norm, entropy float64

	prefetch    int // chunks read ahead of the compute loop; 0 = no overlap
	ckptSkipped int // checkpoints skipped on persistent ENOSPC
	restored    int // attempts that restored a snapshot
	restarts    int // restarts of failed attempts (ckpt.Policy.Restart)
	from        int // the stage the last attempt started from a snapshot at, −1 for none
	// observe is dist's hook on every pass over a chunk (Observe), or nil.
	observe func([]schedule.Op, time.Time, []time.Duration)
	tel     vecTel
}

const ampBytes = 16

// New creates a file-backed |0…0⟩ state in dir (empty dir means the
// default temp dir). l controls the in-memory chunk size.
func New(n, l int, dir string) (*Vector, error) {
	return Create(nil, n, l, dir, statevec.StartZero)
}

// NewUniform creates the uniform superposition.
func NewUniform(n, l int, dir string) (*Vector, error) {
	return Create(nil, n, l, dir, statevec.StartUniform)
}

// Create creates a file-backed n-qubit state in the start state start, in
// 2^l-amplitude chunks, with the state file in dir on fs (nil: fsio.OS):
// every access to it, the pipeline's reader and writeback goroutines'
// included, goes through fs. It writes nothing: the first stage computes
// the start state's chunks as it reads them.
func Create(fs fsio.FS, n, l int, dir string, start statevec.Start) (*Vector, error) {
	if fs == nil {
		fs = fsio.OS{}
	}
	if l >= n {
		return nil, fmt.Errorf("oocvec: chunk qubits l=%d must be < n=%d", l, n)
	}
	if l < 1 || l > statevec.MaxUnitQubits || n > 40 {
		return nil, fmt.Errorf("oocvec: unsupported sizes n=%d l=%d", n, l)
	}
	f, err := fs.CreateTemp(dir, "oocvec-*.state")
	if err != nil {
		return nil, err
	}
	v := &Vector{N: n, L: l, fs: fs, f: f, loc: make([]int, n), pool: [][]complex128{kernels.NewAmps[complex128](1 << l)}, start: start, fresh: true}
	for p := range v.loc {
		v.loc[p] = p
	}
	return v, nil
}

// readChunk reads chunk c of the plan's state into amps or, while the file
// is fresh, computes it: a start state is the same in every layout.
func (v *Vector) readChunk(c int, amps []complex128) error {
	if !v.fresh {
		return v.chunkIO(c, amps, false)
	}
	if _, rest := v.start.Amplitudes(v.N); rest == 0 {
		clear(amps) // Fill writes only the nonzero amplitudes
	}
	statevec.Fill(v.start, v.N, amps, c)
	return nil
}

// SetPrefetch sets how many chunks a run reads ahead of the compute loop
// while writeback drains behind it. Every depth executes a stage as one
// fused streamed pass; depth 0 (the default) does so with a single buffer,
// so read, compute and write alternate. Negative depths clamp to 0.
func (v *Vector) SetPrefetch(depth int) {
	if depth < 0 {
		depth = 0
	}
	v.prefetch = depth
}

// Prefetch returns the armed prefetch depth.
func (v *Vector) Prefetch() int { return v.prefetch }

// vecTel caches the vector's telemetry handles (all nil-safe when
// disarmed): the engine/reader/writeback timelines plus the prefetch and
// I/O metrics the pipeline updates per chunk.
type vecTel struct {
	t    *telemetry.Telemetry // for the mem.* gauges of each stage's pool
	sc   *telemetry.Scope     // tid 0: compute loop, op/stage spans
	rdSc *telemetry.Scope     // tid 1: prefetch reader
	wrSc *telemetry.Scope     // tid 2: asynchronous writeback

	hits, misses  *telemetry.Counter // prefetch hit = chunk ready when asked
	chunksRead    *telemetry.Counter
	chunksWritten *telemetry.Counter
	readReqs      *telemetry.Counter // ReadAt calls on the state file
	writeReqs     *telemetry.Counter // WriteAt calls on the state file
	ioRetries     *telemetry.Counter // transient chunk-I/O errors retried
	inFlight      *telemetry.Gauge   // bytes held in pipeline buffers
	readNs        *telemetry.Histogram
	writeNs       *telemetry.Histogram
}

// SetTelemetry arms (or, with nil / telemetry.Disabled, disarms) the
// vector's instrumentation: op and stage spans on the engine timeline,
// prefetch-reader and writeback span rows whose overlap with compute is
// directly visible in the trace, and the oocvec.* counters.
func (v *Vector) SetTelemetry(t *telemetry.Telemetry) {
	if !t.Enabled() {
		v.tel = vecTel{}
		return
	}
	v.tel = vecTel{
		t:             t,
		sc:            t.Scope(telemetry.OocPID, 0, "oocvec", "engine"),
		rdSc:          t.Scope(telemetry.OocPID, 1, "oocvec", "prefetch reader"),
		wrSc:          t.Scope(telemetry.OocPID, 2, "oocvec", "writeback"),
		hits:          t.Counter("oocvec.prefetch_hits"),
		misses:        t.Counter("oocvec.prefetch_misses"),
		chunksRead:    t.Counter("oocvec.chunks_read"),
		chunksWritten: t.Counter("oocvec.chunks_written"),
		readReqs:      t.Counter("oocvec.read_requests"),
		writeReqs:     t.Counter("oocvec.write_requests"),
		ioRetries:     t.Counter("oocvec.io_retries"),
		inFlight:      t.Gauge("oocvec.bytes_in_flight"),
		readNs:        t.Histogram("oocvec.read_ns"),
		writeNs:       t.Histogram("oocvec.write_ns"),
	}
}

// Close removes the backing file.
func (v *Vector) Close() error {
	err := v.f.Close()
	if rmErr := v.fs.Remove(v.f.Name()); err == nil {
		err = rmErr
	}
	return err
}

// CheckpointsSkipped reports how many snapshots the vector's runs dropped
// because the disk stayed full after pruning: a run goes on without them.
func (v *Vector) CheckpointsSkipped() int { return v.ckptSkipped }

// Restarts reports how many times RunCheckpointed restarted a failed attempt.
func (v *Vector) Restarts() int { return v.restarts }

// Chunks returns the number of file chunks, 2^(N−L).
func (v *Vector) Chunks() int { return 1 << (v.N - v.L) }

// chunkBytes returns the size of one chunk in the file.
func (v *Vector) chunkBytes() int { return ampBytes << v.L }

// Transient chunk-I/O errors (EINTR/EAGAIN-class, fsio.IsTransient) are
// retried in place with bounded exponential backoff rather than aborting a
// multi-hour streamed pass: ioRetryAttempts total tries, sleeping
// ioRetryBase, 2·ioRetryBase, … between them.
const (
	ioRetryAttempts = 3
	ioRetryBase     = 250 * time.Microsecond
)

// retryIO runs op, retrying transient failures. Each retry bumps the
// (nil-safe) counter; a window that outlasts every attempt surfaces the
// last error, still marked transient so callers can degrade further.
func retryIO(retries *telemetry.Counter, op func() error) error {
	var err error
	for a := 0; a < ioRetryAttempts; a++ {
		if a > 0 {
			retries.Inc()
			time.Sleep(ioRetryBase << uint(a-1))
		}
		if err = op(); err == nil || !fsio.IsTransient(err) {
			return err
		}
	}
	return fmt.Errorf("oocvec: transient i/o persisted through %d attempts: %w", ioRetryAttempts, err)
}

// chunkIO reads (write false) or writes chunk c of the plan's state, its
// amplitude x living at the file offset whose bit loc[p] is bit p of
// c<<L | x. The r low locations that sit at their own bits (runBits) keep
// 2^r amplitudes contiguous, so the chunk is 2^(L−r) runs of 2^r
// amplitudes, one positional access each; distinct chunks touch distinct
// offsets, so concurrent calls on them are safe.
func (v *Vector) chunkIO(c int, amps []complex128, write bool) error {
	return v.runsIO(c, v.runBits(), amps, write)
}

// runBits returns r, the number of low plan locations at their own file
// bits: L for the identity layout, where a chunk is one run.
func (v *Vector) runBits() int {
	r := 0
	for r < v.L && v.loc[r] == r {
		r++
	}
	return r
}

// runsIO reads or writes amps as 2^(L−r) equal runs, run i at the file
// offset of run i of chunk c: chunkIO's access when amps is the chunk, and
// one access per run for a whole group of chunks whose runs follow those
// of chunk c in the file (pipeline.go's combined writeback).
func (v *Vector) runsIO(c, r int, amps []complex128, write bool) error {
	runs := 1 << (v.L - r)
	raw := kernels.AmpBytes(amps)
	run := len(raw) / runs
	for i := 0; i < runs; i++ {
		x, off := c<<(v.L-r)|i, int64(0)
		for p := r; p < v.N; p++ {
			off |= int64(x>>(p-r)&1) << v.loc[p]
		}
		b := raw[i*run : (i+1)*run]
		if err := retryIO(v.tel.ioRetries, func() error {
			var err error
			if write {
				v.tel.writeReqs.Inc()
				_, err = v.f.WriteAt(b, off*ampBytes)
			} else {
				v.tel.readReqs.Inc()
				_, err = v.f.ReadAt(b, off*ampBytes)
			}
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// Run executes a full plan built with LocalQubits = L on the state the
// file holds: RunCheckpointed without a checkpoint policy.
func (v *Vector) Run(plan *schedule.Plan) error {
	_, _, err := v.RunCheckpointed(plan, nil, false)
	return err
}

// Load puts in place the state an attempt starts from (dist.Store): the
// snapshot man, streamed into the file chunk by chunk, or, after a failed
// attempt with none to resume from, init, which the file then stands for
// without a write.
func (v *Vector) Load(ck *ckpt.Writer, man *ckpt.Manifest, init statevec.Start, failed bool) error {
	v.from = -1
	switch {
	case man != nil:
		if err := v.restore(ck, man); err != nil {
			return err
		}
		v.from, v.restored = man.NextStage, v.restored+1
	case failed:
		v.start, v.fresh, v.kept = init, true, false
	}
	return nil
}

// Units reads the state once, in chunk order, and hands each chunk to visit
// (dist.Store).
func (v *Vector) Units(visit func(chunk []complex128) error) error {
	buf := v.pool[0]
	for c := 0; c < v.Chunks(); c++ {
		if err := v.readChunk(c, buf); err != nil {
			return err
		}
		if err := visit(buf); err != nil {
			return err
		}
	}
	return nil
}

// Observe arms hook on every pass over a chunk, or disarms it when nil
// (dist.Store).
func (v *Vector) Observe(hook func([]schedule.Op, time.Time, []time.Duration)) { v.observe = hook }

// Buffers returns the memory the vector holds amplitudes in (dist.Store):
// a stage's depth+1 chunks of pool and the writeback's staging buffer.
func (v *Vector) Buffers() [][]complex128 {
	held := min(len(v.pool), min(v.prefetch, v.Chunks())+1)
	return append(v.pool[:held:held], v.staging)
}

// Norm returns Σ|α|², NormEntropy's norm: kernels.Norm returns it bit for
// bit on every kernel set, so a sum of either is the same number.
func (v *Vector) Norm() (float64, error) {
	norm, _, err := v.NormEntropy()
	return norm, err
}

// Entropy returns the output distribution's Shannon entropy in nats.
func (v *Vector) Entropy() (float64, error) {
	_, ent, err := v.NormEntropy()
	return ent, err
}

// NormEntropy returns Norm and Entropy (dist.Store): the kept pair, or
// one stream over the file, whose pair it keeps.
func (v *Vector) NormEntropy() (norm, entropy float64, err error) {
	if v.kept {
		return v.norm, v.entropy, nil
	}
	if err = v.Units(func(chunk []complex128) error {
		a, b := kernels.NormEntropy(chunk)
		norm, entropy = norm+a, entropy+b
		return nil
	}); err != nil {
		return 0, 0, err
	}
	v.kept, v.norm, v.entropy = true, norm, entropy
	return norm, entropy, nil
}

// Amplitudes loads the full state in plan order (testing only), chunk by
// chunk.
func (v *Vector) Amplitudes() ([]complex128, error) {
	out := kernels.NewAmps[complex128](1 << v.N)[:0]
	err := v.Units(func(chunk []complex128) error { out = append(out, chunk...); return nil })
	return out, err
}
