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
// Execution is circuit-aware: the plan's stage cut (schedule.Plan.AccessMap,
// compiled by schedule.Shard.Stages) tells the engine, before any I/O
// happens, what every upcoming stage applies and exchanges. Run fuses
// each stage's local ops into a single streamed pass (pipeline.go), applied
// chunk by chunk through the shard applier every back end shares
// (schedule.Shard); a prefetch depth (SetPrefetch) overlaps that pass with
// asynchronous read-ahead and writeback, and depth 0 runs the same pass with
// one buffer and no overlap. Every depth is bitwise identical to Plan.Run.
//
// The state file is one process's scratch — a crash resumes from a ckpt
// snapshot, never from it — so it holds amplitudes in the host's byte order,
// in the vector's own layout, and chunk I/O goes through kernels.AmpBytes
// views of amplitude memory: there is no encoded form of a chunk, only
// snapshots (in plan order) are portable.
package oocvec

import (
	"fmt"
	"time"

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
	// pool[0] also serves the constructors, streams, snapshots and restores,
	// none of which runs during a stage.
	pool [][]complex128
	// staging gathers the writeback of a group of chunks whose runs sit
	// side by side in the file (pipeline.go): at most 2^writeGroupBits
	// chunks and never more than the pool, allocated by the first stage
	// that combines and kept ever after.
	staging []complex128

	start       statevec.Start // the state the vector was created in
	prefetch    int            // chunks read ahead of the compute loop; 0 = no overlap
	ckptSkipped int            // checkpoints skipped on persistent ENOSPC (ckpt.go)
	restored    int            // RunCheckpointed attempts that started from a snapshot
	restarts    int            // RunCheckpointed's restarts (ckpt.Policy.Restart)
	tel         vecTel
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
// included, goes through fs.
func Create(fs fsio.FS, n, l int, dir string, start statevec.Start) (*Vector, error) {
	if fs == nil {
		fs = fsio.OS{}
	}
	if l >= n {
		return nil, fmt.Errorf("oocvec: chunk qubits l=%d must be < n=%d", l, n)
	}
	if l < 1 || n > 40 {
		return nil, fmt.Errorf("oocvec: unsupported sizes n=%d l=%d", n, l)
	}
	f, err := fs.CreateTemp(dir, "oocvec-*.state")
	if err != nil {
		return nil, err
	}
	v := &Vector{N: n, L: l, fs: fs, f: f, loc: make([]int, n), pool: [][]complex128{kernels.NewAmps[complex128](1 << l)}, start: start}
	for p := range v.loc {
		v.loc[p] = p
	}
	if err := v.fill(); err != nil {
		v.Close()
		return nil, err
	}
	return v, nil
}

// fill writes the state the vector was created in through its layout.
func (v *Vector) fill() error {
	first, rest := v.start.Amplitudes(v.N)
	buf := v.pool[0]
	for i := range buf {
		buf[i] = rest
	}
	buf[0] = first
	for c := 0; c < v.Chunks(); c++ {
		if err := v.chunkIO(c, buf, true); err != nil {
			return err
		}
		buf[0] = rest
	}
	return nil
}

// SetPrefetch sets how many chunks Run and RunCheckpointed read ahead of the
// compute loop while writeback drains behind it. Every depth executes a
// stage as one fused streamed pass; depth 0 (the default) does so with a
// single buffer, so read, compute and write alternate. Negative depths clamp
// to 0.
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

// CheckpointsSkipped reports how many periodic snapshots RunCheckpointed
// dropped because the disk stayed full after pruning — the graceful-
// degradation path: the run continues, it just restarts from further back
// if it later has to.
func (v *Vector) CheckpointsSkipped() int { return v.ckptSkipped }

// CheckpointsRestored reports how many RunCheckpointed attempts started from a snapshot.
func (v *Vector) CheckpointsRestored() int { return v.restored }

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

// Run executes a full plan built with LocalQubits = L.
func (v *Vector) Run(plan *schedule.Plan) error {
	if plan.N != v.N || plan.L != v.L {
		return fmt.Errorf("oocvec: plan (n=%d l=%d) does not match vector (n=%d l=%d)", plan.N, plan.L, v.N, v.L)
	}
	return v.walk(plan, 0, nil)
}

// stream reads the state once, in chunk order, and hands each chunk to visit.
func (v *Vector) stream(visit func(chunk []complex128) error) error {
	buf := v.pool[0]
	for c := 0; c < v.Chunks(); c++ {
		if err := v.chunkIO(c, buf, false); err != nil {
			return err
		}
		if err := visit(buf); err != nil {
			return err
		}
	}
	return nil
}

// Norm returns Σ|α|² by streaming the file.
func (v *Vector) Norm() (norm float64, err error) {
	err = v.stream(func(chunk []complex128) error { norm += kernels.Norm(chunk); return nil })
	return norm, err
}

// Entropy returns the output distribution's Shannon entropy in nats.
func (v *Vector) Entropy() (float64, error) {
	_, ent, err := v.NormEntropy()
	return ent, err
}

// NormEntropy returns Norm and Entropy from one stream over the file.
func (v *Vector) NormEntropy() (norm, entropy float64, err error) {
	err = v.stream(func(chunk []complex128) error {
		a, b := kernels.NormEntropy(chunk)
		norm, entropy = norm+a, entropy+b
		return nil
	})
	return norm, entropy, err
}

// Amplitudes loads the full state in plan order (testing only), chunk by
// chunk.
func (v *Vector) Amplitudes() ([]complex128, error) {
	out := kernels.NewAmps[complex128](1 << v.N)[:0]
	err := v.stream(func(chunk []complex128) error { out = append(out, chunk...); return nil })
	return out, err
}
