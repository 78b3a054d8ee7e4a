package oocvec

import (
	"fmt"
	"math/bits"
	"sync"
	"time"

	"qusim/internal/ckpt"
	"qusim/internal/kernels"
	"qusim/internal/schedule"
	"qusim/internal/telemetry"
)

// The circuit-aware prefetch pipeline. The plan's stage cut
// (schedule.Shard.Stages) says, before execution, which ops every stage
// applies and which chunk-index bits its closing swap exchanges — so instead
// of one read-compute-write sweep of the file per op, each stage runs as ONE
// streamed pass over every chunk whose I/O is overlapped with compute:
//
//	reader goroutine:  chunk c+depth … c+1 → pooled buffers (prefetch)
//	caller (compute):  all of the stage's local ops fused on chunk c
//	writeback goroutine: chunk c−1 … → back to its own file offsets
//
// Ordering rules: within a stage every chunk is read once and written
// once, at offsets no other chunk has, so reads may run arbitrarily far
// ahead of writes. Across stages no such freedom exists — stage s+1 re-reads
// what stage s wrote — so the pipeline drains completely at every stage
// boundary, and only then does a closing swap trade its layout entries
// (no goroutine reads the layout while it changes). At depth 0 the pool is a
// single buffer: the same pass with read, compute and write taking turns.
//
// Snapshots ride the reader: stage s's reader reads the chunks in plan
// order, each before stage s writes it back — the state at boundary s, as a
// shard wants it. So the snapshot of boundary s is teed from it and commits
// when it has read the last chunk, the same bytes at every depth. While the
// file is fresh the reader computes the start state's chunks instead of
// reading them, and the first stage to write every chunk ends that.
//
// The compute loop takes the chunks in plan order too. So a stage that
// closes without a swap, which leaves the state the run ends in, also sums
// each chunk's norm and entropy there, in the order a stream over the file
// would, and the vector keeps the pair once the writeback has drained.

// chunkBuf is one pipeline buffer and the number of the chunk it holds.
type chunkBuf struct {
	idx  int
	amps []complex128
}

// Stage executes one stage as a single streamed pass with asynchronous
// prefetch and writeback, the reader teeing snap (nil: no snapshot at this
// boundary) as it goes. The program was prepared once for the stage, not
// once per chunk: it holds nothing of a chunk's amplitudes or number (a
// diagonal reads the chunk number's bits off the index it is handed).
func (v *Vector) Stage(st *schedule.Stage[complex128], snap *ckpt.Snapshot) error {
	t0 := v.tel.sc.Now()
	v.kept = false
	norm, entropy, err := v.pumpStage(st, snap)
	if err != nil {
		snap.Abort() // of what the failed stage left unfinished
		return err
	}
	v.fresh = false
	if !st.Exchanges() {
		v.kept, v.norm, v.entropy = true, norm, entropy
	}
	if !t0.IsZero() {
		v.tel.sc.Complete("stage", "pipeline", t0, time.Since(t0),
			telemetry.A("stage", st.Stage),
			telemetry.A("chunks", v.Chunks()),
			telemetry.A("ops", st.End-st.Begin),
			telemetry.A("swap", st.Exchanges()))
	}
	return nil
}

// Exchange renumbers: local location L−q+j and global location
// L+GlobalBits[j] trade the file bits they live at, and no amplitude moves.
// The pipeline has drained, so no goroutine reads the layout. A kept pair
// was summed in the old chunk order, so it goes.
func (v *Vector) Exchange(st *schedule.Stage[complex128]) {
	v.kept = false
	q := len(st.GlobalBits)
	for j, g := range st.GlobalBits {
		a, b := v.L-q+j, v.L+g
		v.loc[a], v.loc[b] = v.loc[b], v.loc[a]
	}
}

// pumpStage runs the reader → compute → writeback pipeline over every
// chunk and, when st closes without a swap, returns the norm and entropy
// of what it wrote back. On any failure it halts the pipeline, joins both
// goroutines and returns the first error; no goroutine outlives the call. A
// snapshot error the ENOSPC policy does not absorb is a read error of the
// stage. The chunk buffers are the vector's: the first allocated by its
// constructor, the others by its first stage, all kept ever after.
func (v *Vector) pumpStage(st *schedule.Stage[complex128], snap *ckpt.Snapshot) (norm, entropy float64, err error) {
	chunks := v.Chunks()
	depth := v.prefetch
	if depth > chunks {
		depth = chunks
	}
	// depth+1 pooled buffers bound the bytes in flight: up to depth chunks
	// prefetched or awaiting writeback while the caller computes one more.
	nbuf := depth + 1
	for len(v.pool) < nbuf {
		v.pool = append(v.pool, kernels.NewAmps[complex128](1<<v.L))
	}
	wb := v.writeback(depth)
	bufs := make([]chunkBuf, nbuf)
	free := make(chan *chunkBuf, nbuf)
	for i := range bufs {
		bufs[i].amps = v.pool[i]
		free <- &bufs[i]
	}
	filled := make(chan *chunkBuf, depth)
	dirty := make(chan *chunkBuf, nbuf)
	stop := make(chan struct{})
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }

	cb := int64(v.chunkBytes())
	var readErr, writeErr error // owned by their goroutine until the join
	var wg sync.WaitGroup

	// Prefetch reader: stream chunks into pooled buffers, up to depth
	// ahead of the compute loop.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(filled)
		teeT0 := v.tel.rdSc.Now()
		for c := 0; c < chunks; c++ {
			var b *chunkBuf
			select {
			case b = <-free:
			case <-stop:
				return
			}
			t0 := v.tel.rdSc.Now()
			err := v.readChunk(c, b.amps)
			if err == nil && !v.fresh {
				v.tel.chunksRead.Inc()
				if !t0.IsZero() {
					d := time.Since(t0)
					v.tel.readNs.Observe(int64(d))
					v.tel.rdSc.Complete("io", "read", t0, d, telemetry.A("chunk", c))
				}
			}
			if err == nil {
				err = snap.Tee(0, b.amps)
			}
			if err != nil {
				readErr = err
				free <- b
				halt()
				return
			}
			v.tel.inFlight.Add(cb)
			b.idx = c
			select {
			case filled <- b:
			case <-stop:
				v.tel.inFlight.Add(-cb)
				free <- b
				return
			}
		}
		// Making the shard durable overlaps the compute still in flight,
		// which a failure here lets finish: the join reports it.
		if readErr = snap.Commit(); readErr == nil && snap != nil {
			v.teeSpan(v.tel.rdSc, teeT0, st.Stage)
		}
	}()

	// Asynchronous writeback: drain computed chunks into the state file,
	// each buffer back in the pool as soon as its chunk is written or
	// staged. After a failure it keeps draining, so the compute loop never
	// blocks.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for b := range dirty {
			if writeErr == nil {
				if writeErr = wb.put(b); writeErr != nil {
					halt()
				}
			}
			v.tel.inFlight.Add(-cb)
			free <- b
		}
	}()

	// Compute loop: apply the stage's program to each chunk as it arrives,
	// through the shard applier (chunk number = shard index, the default
	// kernels), and sum its norm and entropy after a last stage's program.
	// A chunk already buffered when we ask for it is a prefetch hit — I/O
	// fully hidden behind the previous chunk's compute.
	sh := schedule.Shard[complex128]{L: v.L, Observe: v.observe}
	reduce := !st.Exchanges()
	for done := 0; done < chunks; done++ {
		var b *chunkBuf
		select {
		case b = <-filled:
			v.tel.hits.Inc()
		default:
			v.tel.misses.Inc()
			b = <-filled
		}
		if b == nil {
			break // reader halted early; the join below surfaces its error
		}
		sh.Amps, sh.Index = b.amps, b.idx
		sh.Exec(st.Prog)
		if reduce {
			a, e := kernels.NormEntropy(b.amps)
			norm, entropy = norm+a, entropy+e
		}
		dirty <- b
	}
	close(dirty)
	wg.Wait()
	if readErr != nil {
		return 0, 0, readErr
	}
	return norm, entropy, writeErr
}

// writeGroupBits is log2 of G, the most chunks whose writeback one
// request per run combines once a swap has split each chunk into short
// runs: G = 4 writes such a chunk in a quarter of the requests (DESIGN.md
// §11, "Writes behind and in larger requests", has the sweep over 2, 4 and
// 8).
const writeGroupBits = 2

// combineRunBytes is the run length from which a chunk is written run by
// run where it lives, uncombined: a run this long is already a large
// request, and staging it would add a copy of every chunk to the writeback
// for little saved request time. Combining was measured to pay on 16 KiB
// runs (DESIGN.md §11).
const combineRunBytes = 32 << 10

// stageWriter is a stage's writeback. With g = 0 it writes each chunk
// where it lives. With g > 0 — the r low locations at their own bits
// (Vector.runBits) are followed in the file by chunk bits 0…g−1, so run i
// of the 2^g chunks of an aligned group lie side by side — it copies each
// chunk into its place in the vector's staging buffer, laid out run by
// run, and writes the group, one request per run, once all of its chunks
// are in, whatever their order.
type stageWriter struct {
	v      *Vector
	r, g   int
	first  int // the group being staged, by its first chunk
	staged int // its chunks in the staging buffer
}

// writeback returns the writeback of a stage run on the current layout at
// prefetch depth depth. It combines only runs shorter than combineRunBytes,
// and at most 2^g ≤ depth+1 chunks, so the staging buffer is never larger
// than the pool the depth budgets (none at depth 0). The buffer is
// allocated the first time a stage combines, for the largest group the
// depth allows, and kept.
func (v *Vector) writeback(depth int) *stageWriter {
	w := &stageWriter{v: v, r: v.runBits()}
	if w.r == v.L || ampBytes<<w.r >= combineRunBytes {
		return w // a chunk is one run, or its runs are long already
	}
	gmax := min(writeGroupBits, bits.Len(uint(depth+1))-1, v.N-v.L)
	for w.g < gmax && v.loc[v.L+w.g] == w.r+w.g {
		w.g++
	}
	if w.g > 0 && len(v.staging) < 1<<(v.L+gmax) {
		v.staging = kernels.NewAmps[complex128](1 << (v.L + gmax))
	}
	return w
}

// put writes back b's chunk, or stages it and writes its group when it is
// the group's last chunk in.
func (w *stageWriter) put(b *chunkBuf) error {
	if w.g == 0 {
		return w.write(b.idx, b.amps)
	}
	first := b.idx &^ (1<<w.g - 1)
	if w.staged > 0 && first != w.first {
		return fmt.Errorf("oocvec: chunk %d reached writeback while the group of chunk %d is staged", b.idx, w.first)
	}
	w.first = first
	k, run := b.idx-first, 1<<w.r
	for i := 0; i < 1<<(w.v.L-w.r); i++ {
		copy(w.v.staging[(i<<w.g+k)*run:], b.amps[i*run:(i+1)*run])
	}
	if w.staged++; w.staged < 1<<w.g {
		return nil
	}
	w.staged = 0
	return w.write(first, w.v.staging[:1<<(w.v.L+w.g)])
}

// write lands amps, the 2^g chunks from first on, as the runs of chunk
// first and records it.
func (w *stageWriter) write(first int, amps []complex128) error {
	v, chunks := w.v, 1<<w.g
	t0 := v.tel.wrSc.Now()
	if err := v.runsIO(first, w.r, amps, true); err != nil {
		return err
	}
	if !t0.IsZero() {
		d := time.Since(t0)
		v.tel.writeNs.Observe(int64(d))
		v.tel.wrSc.Complete("io", "write", t0, d, telemetry.A("chunk", first), telemetry.A("chunks", chunks))
	}
	v.tel.chunksWritten.Add(int64(chunks))
	return nil
}
