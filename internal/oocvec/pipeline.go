package oocvec

import (
	"fmt"
	"sync"
	"time"

	"qusim/internal/fsio"
	"qusim/internal/kernels"
	"qusim/internal/schedule"
	"qusim/internal/telemetry"
)

// The circuit-aware prefetch pipeline. The scheduler's chunk access map
// says, before execution, exactly which chunks every stage reads, writes
// and exchanges — so instead of one read-compute-write sweep of the file
// per op, each stage runs as ONE streamed pass whose I/O is overlapped with
// compute:
//
//	reader goroutine:  chunk c+depth … c+1 → pooled buffers (prefetch)
//	caller (compute):  all of the stage's local ops fused on chunk c
//	writeback goroutine: chunk c−1 … → state file, or scattered into the
//	                     swap target when the stage closes with an exchange
//
// Ordering rules: within a stage every chunk is read once and written
// once, at distinct offsets, so reads may run arbitrarily far ahead of
// writes. Across stages no such freedom exists — stage s+1 re-reads what
// stage s wrote — so the pipeline drains completely at every stage
// boundary, and a swap additionally retires the old backing file only
// after its last scattered sub-block landed (the writeback-before-swap
// barrier). Checkpoints ride the same stage boundaries, so a snapshot holds
// the same bytes at every prefetch depth. At depth 0 the pool is a single
// buffer: the same pass with read, compute and write taking turns.

// chunkBuf is one pooled pipeline buffer: a decoded chunk plus the encoded
// scratch its I/O goes through.
type chunkBuf struct {
	idx  int
	amps []complex128
	raw  []byte
}

// runPipelined executes stages [startStage, endStage) through the pipeline,
// consulting the plan access map — which is also where a malformed
// plan (an unknown op kind, an op after its stage's closing swap) is turned
// away before any I/O starts.
func (v *Vector) runPipelined(plan *schedule.Plan, startStage, endStage int) error {
	access, err := plan.AccessMap()
	if err != nil {
		return fmt.Errorf("oocvec: %w", err)
	}
	if endStage > len(access.Stages) {
		endStage = len(access.Stages)
	}
	for s := startStage; s < endStage; s++ {
		if err := v.runStage(plan, &access.Stages[s]); err != nil {
			return err
		}
	}
	return nil
}

// runStage executes one swap-delimited stage as a single fused streamed
// pass with asynchronous prefetch and writeback.
func (v *Vector) runStage(plan *schedule.Plan, sa *schedule.StageAccess) error {
	// What the compute loop applies to each chunk: the streamed ops, then
	// the closing swap, of which the applier executes the fused
	// pre-permutation; the exchange itself is the writeback's scatter.
	ops := make([]schedule.Op, 0, len(sa.StreamOps)+1)
	for _, i := range sa.StreamOps {
		ops = append(ops, plan.Ops[i])
	}
	var bitPos []int
	swaps := sa.Exchanges()
	if swaps {
		swapOp := &plan.Ops[sa.Swap]
		var err error
		if bitPos, err = v.swapGeometry(swapOp); err != nil {
			return err
		}
		ops = append(ops, *swapOp)
	}
	if len(ops) == 0 {
		return nil
	}
	// Prepared once for the stage, not once per chunk: the program holds
	// nothing of a chunk's amplitudes or number (a diagonal reads the chunk
	// number's bits off the index it is handed).
	prog, err := (&schedule.Shard[complex128]{L: v.L}).Compile(ops)
	if err != nil {
		return fmt.Errorf("oocvec: %w", err)
	}

	var out fsio.File
	if swaps {
		if out, err = v.fs.CreateTemp(v.dir, "oocvec-*.swap"); err != nil {
			return err
		}
	}

	t0 := v.tel.sc.Now()
	if err = v.pumpStage(prog, bitPos, out); err != nil {
		if out != nil {
			out.Close()
			v.fs.Remove(out.Name())
		}
		return err
	}
	if out != nil {
		// Writeback has fully drained (pumpStage joins the writer before
		// returning): the files may swap roles.
		if err := v.adoptSwapFile(out); err != nil {
			return err
		}
	}
	if !t0.IsZero() {
		v.tel.sc.Complete("stage", "pipeline", t0, time.Since(t0),
			telemetry.A("stage", sa.Stage),
			telemetry.A("chunks", v.Chunks()),
			telemetry.A("ops", len(sa.Ops)),
			telemetry.A("stream_ops", len(sa.StreamOps)),
			telemetry.A("qubits", maskPositions(sa.LocalQubitMask)),
			telemetry.A("swap", swaps))
	}
	return nil
}

// pumpStage runs the reader → compute → writeback pipeline over every
// chunk. On any failure it halts the pipeline, joins both goroutines and
// returns the first error; no goroutine or buffer outlives the call.
func (v *Vector) pumpStage(prog *schedule.Program[complex128], bitPos []int, out fsio.File) error {
	chunks := v.Chunks()
	depth := v.prefetch
	if depth > chunks {
		depth = chunks
	}
	// depth+1 pooled buffers bound the bytes in flight: up to depth chunks
	// prefetched or awaiting writeback while the caller computes one more.
	nbuf := depth + 1
	free := make(chan *chunkBuf, nbuf)
	pool := make([][]complex128, nbuf)
	for i := range pool {
		pool[i] = kernels.NewAmps[complex128](1 << v.L)
		free <- &chunkBuf{amps: pool[i], raw: make([]byte, v.chunkBytes())}
	}
	// The state in memory is the pool; NewAmps has touched its pages.
	kernels.ObservePages(v.tel.t, pool...)
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
		for c := 0; c < chunks; c++ {
			var b *chunkBuf
			select {
			case b = <-free:
			case <-stop:
				return
			}
			t0 := v.tel.rdSc.Now()
			if err := readChunkInto(v.f, v.L, c, b.amps, b.raw, v.tel.ioRetries); err != nil {
				readErr = err
				free <- b
				halt()
				return
			}
			if !t0.IsZero() {
				d := time.Since(t0)
				v.tel.readNs.Observe(int64(d))
				v.tel.rdSc.Complete("io", "read", t0, d, telemetry.A("chunk", c))
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
	}()

	// Asynchronous writeback: drain computed chunks into the state file,
	// or scatter their sub-blocks into the swap target.
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
			var err error
			if out != nil {
				err = scatterChunk(out, v.L, b.idx, bitPos, b.amps, b.raw, v.tel.ioRetries)
			} else {
				err = writeChunkFrom(v.f, v.L, b.idx, b.amps, b.raw, v.tel.ioRetries)
			}
			if err != nil {
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
	// The scratch is v.buf, idle while a stage runs: when a permutation's
	// gather lands in it, the pooled buffer takes it over and hands its old
	// amps back as the next scratch, so no chunk is allocated for it.
	sh := schedule.Shard[complex128]{L: v.L, Scratch: v.buf}
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
		sh.Exec(prog)
		b.amps = sh.Amps
		dirty <- b
	}
	v.buf = sh.Scratch
	close(dirty)
	wg.Wait()
	if readErr != nil {
		return readErr
	}
	return writeErr
}

// maskPositions expands a qubit bitmask into the sorted position list used
// in trace annotations.
func maskPositions(mask uint64) []int {
	var out []int
	for b := 0; mask != 0; b, mask = b+1, mask>>1 {
		if mask&1 != 0 {
			out = append(out, b)
		}
	}
	return out
}
