package oocvec

import (
	"fmt"
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
// when it has read the last chunk, the same bytes at every depth.

// chunkBuf is one pipeline buffer and the number of the chunk it holds.
type chunkBuf struct {
	idx  int
	amps []complex128
}

// walk executes the stages from start on through the pipeline, teeing the
// snapshots ck names. Their cut is also where a malformed plan (an unknown op
// kind, an op after its stage's closing swap) is turned away, before any I/O
// starts.
func (v *Vector) walk(plan *schedule.Plan, start int, ck *ckpt.Writer) error {
	stages, err := (&schedule.Shard[complex128]{L: v.L}).Stages(plan, start)
	if err != nil {
		return fmt.Errorf("oocvec: %w", err)
	}
	return schedule.Walk(plan, stages, start, ck, pipeline{v})
}

// pipeline is the vector as the stage walk's executor.
type pipeline struct{ *Vector }

// Stage executes one stage as a single streamed pass with asynchronous
// prefetch and writeback, the reader teeing snap (nil: no snapshot at this
// boundary) as it goes. The program was prepared once for the stage, not
// once per chunk: it holds nothing of a chunk's amplitudes or number (a
// diagonal reads the chunk number's bits off the index it is handed).
func (p pipeline) Stage(st *schedule.Stage[complex128], snap *ckpt.Snapshot) error {
	t0 := p.tel.sc.Now()
	if err := p.pumpStage(st, snap); err != nil {
		snap.Abort() // of what the failed stage left unfinished
		return err
	}
	if !t0.IsZero() {
		p.tel.sc.Complete("stage", "pipeline", t0, time.Since(t0),
			telemetry.A("stage", st.Stage),
			telemetry.A("chunks", p.Chunks()),
			telemetry.A("ops", st.End-st.Begin),
			telemetry.A("swap", st.Exchanges()))
	}
	return nil
}

// Exchange renumbers: local location L−q+j and global location
// L+GlobalBits[j] trade the file bits they live at, and no amplitude moves.
// The pipeline has drained, so no goroutine reads the layout.
func (p pipeline) Exchange(st *schedule.Stage[complex128]) {
	q := len(st.GlobalBits)
	for j, g := range st.GlobalBits {
		a, b := p.L-q+j, p.L+g
		p.loc[a], p.loc[b] = p.loc[b], p.loc[a]
	}
}

// pumpStage runs the reader → compute → writeback pipeline over every
// chunk. On any failure it halts the pipeline, joins both goroutines and
// returns the first error; no goroutine outlives the call. A snapshot error
// the ENOSPC policy does not absorb is a read error of the stage. The chunk
// buffers are the vector's: the first allocated by its constructor, the
// others by its first stage, all kept ever after.
func (v *Vector) pumpStage(st *schedule.Stage[complex128], snap *ckpt.Snapshot) error {
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
	// The state in memory is the pool; NewAmps has touched its pages.
	kernels.ObservePages(v.tel.t, v.pool[:nbuf]...)
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
			err := v.chunkIO(c, b.amps, false)
			if err == nil && !t0.IsZero() {
				d := time.Since(t0)
				v.tel.readNs.Observe(int64(d))
				v.tel.rdSc.Complete("io", "read", t0, d, telemetry.A("chunk", c))
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
			v.tel.chunksRead.Inc()
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

	// Asynchronous writeback: drain computed chunks into the state file.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for b := range dirty {
			if writeErr != nil {
				v.tel.inFlight.Add(-cb)
				free <- b
				continue // keep draining so the compute loop never blocks
			}
			t0 := v.tel.wrSc.Now()
			if err := v.chunkIO(b.idx, b.amps, true); err != nil {
				writeErr = err
				halt()
			} else {
				if !t0.IsZero() {
					d := time.Since(t0)
					v.tel.writeNs.Observe(int64(d))
					v.tel.wrSc.Complete("io", "write", t0, d, telemetry.A("chunk", b.idx))
				}
				v.tel.chunksWritten.Inc()
			}
			v.tel.inFlight.Add(-cb)
			free <- b
		}
	}()

	// Compute loop: apply the stage's program to each chunk as it arrives,
	// through the shard applier (chunk number = shard index, the default
	// kernels). A chunk already buffered when we ask for it is a
	// prefetch hit — I/O fully hidden behind the previous chunk's compute.
	sh := schedule.Shard[complex128]{L: v.L}
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
		dirty <- b
	}
	close(dirty)
	wg.Wait()
	if readErr != nil {
		return readErr
	}
	return writeErr
}
