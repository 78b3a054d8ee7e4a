// Package mpi simulates the message-passing layer of Sec. 3.4 of Häner &
// Steiger, SC'17. Ranks run as goroutines inside one process; the
// primitives are the five collectives a schedule.Plan needs: Barrier,
// GroupAlltoall and GroupAlltoallGather (the global-to-local swap, whose
// q = 1 case is the pairwise half-vector exchange of the per-gate scheme of
// [19]), AllreduceSum and AllgatherFloat64.
//
// Communication structure is exact — who sends how many bytes where, and
// how many collective steps happen, are the quantities the paper optimizes
// and are counted faithfully. Wall-clock behaviour of a Cray Aries network
// is out of scope here; package perfmodel maps the recorded traffic onto a
// network model for the paper-scale projections.
//
// Beyond the happy path, the layer is built to FAIL DETECTABLY — the
// property checkpoint/restart needs from its transport:
//
//   - Payload integrity: with SetVerifyChecksums(true), every collective
//     carries a CRC32C per posted chunk and receivers verify what they
//     read; a flipped bit surfaces as an error wrapping ErrCorrupt instead
//     of silently wrong amplitudes.
//   - Dead ranks: a rank that vanishes mid-run (FaultPlan.Crash, or a
//     panic) never leaves the survivors hanging. The scheduler tracks what
//     every rank is blocked on; the moment all live ranks are provably
//     stuck waiting for a dead one, the run unwinds with an error wrapping
//     ErrRankDead.
//   - Hung ranks: SetDeadline arms a wall-clock bound on the whole Run; on
//     expiry the run unwinds with an error wrapping ErrStalled that names
//     the collective each stuck rank was blocked in.
//
// Recoverable reports whether an error is one of these detected transport
// failures — the class dist.Run's checkpoint/restart loop retries.
package mpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qusim/internal/telemetry"
)

// Detected-failure classes. Errors returned by Run wrap one (or more) of
// these; see Recoverable.
var (
	// ErrCorrupt marks a payload whose checksum did not verify.
	ErrCorrupt = errors.New("payload corruption detected")
	// ErrRankDead marks a rank that vanished mid-run.
	ErrRankDead = errors.New("rank dead")
	// ErrStalled marks a run that stopped making progress (deadline
	// exceeded, or every live rank provably stuck).
	ErrStalled = errors.New("collective stalled")
)

// Recoverable reports whether err is a detected transport failure — the
// class of errors a checkpoint/restart layer can retry, as opposed to a
// programming error or an engine failure.
func Recoverable(err error) bool {
	return errors.Is(err, ErrCorrupt) || errors.Is(err, ErrRankDead) || errors.Is(err, ErrStalled)
}

// Traffic accumulates communication statistics across all ranks.
type Traffic struct {
	// Steps counts collective communication steps (an all-to-all round
	// counts once, matching the paper's counting where one global-to-local
	// swap == one communication step).
	Steps atomic.Int64
	// Bytes counts payload bytes that crossed rank boundaries (self-copies
	// are free).
	Bytes atomic.Int64
}

// posting is one rank's contribution to an all-to-all board: the chunks it
// offers plus (when checksums are on) a CRC32C per chunk, computed before
// the payload hits the "wire" so receivers can audit what arrived.
type posting struct {
	chunks [][]complex128
	sums   []uint32 // nil when checksum verification is off
}

// World coordinates size ranks.
type World struct {
	size    int
	k       *coord
	board   []posting // board[src] posted for an all-to-all
	reduce  []float64
	Traffic Traffic

	verifySums bool
	deadline   time.Duration

	fault       *FaultPlan // armed by InjectFaults; nil = clean runs
	faultEvents atomic.Int64

	tel *worldTel // armed by SetTelemetry; nil = no instrumentation
}

// NewWorld creates a world of the given size (ranks are 0…size−1).
func NewWorld(size int) *World {
	if size < 1 {
		panic(fmt.Sprintf("mpi: invalid world size %d", size))
	}
	return &World{
		size:   size,
		k:      newCoord(size),
		board:  make([]posting, size),
		reduce: make([]float64, size),
	}
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// SetVerifyChecksums toggles CRC32C verification of every collective's
// payload (off by default). Must be set before Run.
func (w *World) SetVerifyChecksums(on bool) { w.verifySums = on }

// SetDeadline bounds the wall time of each subsequent Run. When exceeded,
// blocked ranks unwind and Run returns an error wrapping ErrStalled that
// names the collective each stuck rank was waiting in. Zero disables the
// deadline. A Run that trips its deadline may leak the goroutines of ranks
// hung outside the communication layer; the world must not be reused after
// a deadline failure.
func (w *World) SetDeadline(d time.Duration) { w.deadline = d }

// Run spawns one goroutine per rank executing fn and waits for all of them.
// The first panic is re-raised on the caller.
//
// A rank that returns an error (or panics) poisons the world's
// coordinator, so ranks blocked inside a collective unwind immediately
// instead of waiting for a participant that will never arrive — Run
// reports the failure rather than deadlocking. Poisoned ranks' partial
// results are discarded along with the world.
//
// Failure detection beyond explicit errors:
//   - a rank that dies silently (FaultPlan.Crash) is detected as soon as
//     every surviving rank is provably blocked on it (no timer needed);
//   - SetDeadline adds a wall-clock bound for ranks hung outside the
//     communication layer.
func (w *World) Run(fn func(c *Comm) error) error {
	k := w.k
	k.reset()
	for i := range w.board {
		w.board[i] = posting{}
	}
	var wg sync.WaitGroup
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					switch v := p.(type) {
					case poisonUnwind:
						// Unwound out of a collective after another rank
						// failed; that rank carries the real error.
						k.markDone(rank)
					case rankCrashed:
						// Injected silent death: no error, no poison — the
						// survivors must detect the loss themselves.
						k.markDead(rank)
					case collectiveError:
						k.fail(rank, v.err, nil)
					default:
						k.fail(rank, nil, p)
					}
					return
				}
			}()
			if err := fn(&Comm{w: w, rank: rank, frand: w.newFaultRand(rank), tel: w.tel, scope: w.commScope(rank)}); err != nil {
				k.fail(rank, err, nil)
			} else {
				k.markDone(rank)
			}
		}(r)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var expired chan struct{}
	var watchdog *time.Timer
	if w.deadline > 0 {
		expired = make(chan struct{})
		d := w.deadline
		tel := w.tel
		if tel != nil {
			tel.watchArmed.Inc()
			tel.worldScope.Instant("mpi", "watchdog.arm", telemetry.A("deadline_ms", d.Milliseconds()))
		}
		watchdog = time.AfterFunc(d, func() {
			if tel != nil {
				tel.watchFired.Inc()
				tel.worldScope.Instant("mpi", "watchdog.expire")
			}
			k.poisonDeadline(d)
			close(expired)
		})
	}
	if expired != nil {
		select {
		case <-done:
		case <-expired:
			// Ranks hung outside the communication layer cannot be unwound;
			// report without joining them (their goroutines leak, the world
			// is dead). Ranks blocked in collectives have been poisoned and
			// exit on their own.
		}
		watchdog.Stop()
		if w.tel != nil {
			w.tel.worldScope.Instant("mpi", "watchdog.disarm")
		}
	} else {
		<-done
	}
	err := k.result()
	if w.tel != nil && err != nil {
		if errors.Is(err, ErrRankDead) {
			w.tel.deadRank.Inc()
		}
		if errors.Is(err, ErrStalled) {
			w.tel.stallDetect.Inc()
		}
	}
	return err
}

// coord is the world's failure-aware synchronization core: one mutex+cond
// covering the sense barrier and the per-rank progress accounting that
// turns a dead rank into a detected deadlock instead of a hang.
type coord struct {
	mu   sync.Mutex
	cond *sync.Cond
	n    int

	count int // barrier arrivals this generation
	gen   int

	failed  bool
	failErr error // first detected stall/crash/deadline failure
	rankErr error // first explicit rank error (incl. checksum failures)
	rankPan any   // first rank panic, re-raised by Run

	state []rankState
	dead  int
	done  int
}

type rankStatus int

const (
	statusRunning rankStatus = iota
	statusDone
	statusDead
)

// rankState is one rank's progress record, guarded by coord.mu. A rank
// counts as "stuck" only if its recorded wait is provably unsatisfiable
// right now (barrier generation unchanged) — a rank whose wake-up condition
// already holds is runnable, so the deadlock check never fires on transient
// states.
type rankState struct {
	status  rankStatus
	waiting bool   // blocked in a barrier
	label   string // collective the rank is blocked in
	gen     int    // awaited barrier generation
}

// poisonUnwind unwinds a rank goroutine out of a collective after another
// rank failed. World.Run recovers it; it never escapes the package.
type poisonUnwind struct{}

// rankCrashed is the injected silent death of FaultPlan.Crash.
type rankCrashed struct{}

// collectiveError carries a detected integrity failure out of a collective.
type collectiveError struct{ err error }

func newCoord(n int) *coord {
	k := &coord{n: n, state: make([]rankState, n)}
	k.cond = sync.NewCond(&k.mu)
	return k
}

// reset re-arms the coordinator for a new Run on the same world.
func (k *coord) reset() {
	k.mu.Lock()
	k.count, k.gen = 0, 0
	k.failed = false
	k.failErr, k.rankErr, k.rankPan = nil, nil, nil
	for i := range k.state {
		k.state[i] = rankState{}
	}
	k.dead, k.done = 0, 0
	k.mu.Unlock()
}

// poison wakes every waiter into a poisonUnwind. Caller holds mu.
func (k *coord) poisonLocked() {
	if !k.failed {
		k.failed = true
		k.cond.Broadcast()
	}
}

// fail records a rank's explicit failure (error or panic) and poisons.
func (k *coord) fail(rank int, err error, pan any) {
	k.mu.Lock()
	if err != nil && k.rankErr == nil {
		k.rankErr = err
	}
	if pan != nil && k.rankPan == nil {
		k.rankPan = pan
	}
	k.setStatus(rank, statusDone)
	k.poisonLocked()
	k.mu.Unlock()
}

func (k *coord) markDone(rank int) {
	k.mu.Lock()
	k.setStatus(rank, statusDone)
	k.maybeStuckLocked()
	k.mu.Unlock()
}

func (k *coord) markDead(rank int) {
	k.mu.Lock()
	k.setStatus(rank, statusDead)
	k.maybeStuckLocked()
	k.mu.Unlock()
}

func (k *coord) setStatus(rank int, s rankStatus) {
	if k.state[rank].status != statusRunning {
		return
	}
	k.state[rank].status = s
	if s == statusDead {
		k.dead++
	} else {
		k.done++
	}
}

// poisonDeadline fires from the Run watchdog: every rank still blocked in a
// collective is reported by name.
func (k *coord) poisonDeadline(d time.Duration) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.failed || k.done+k.dead == k.n {
		return
	}
	stuck := k.stuckLabelsLocked()
	detail := "no rank was blocked in a collective (compute overran the deadline)"
	if len(stuck) > 0 {
		detail = "stuck in " + strings.Join(stuck, ", ")
	}
	k.failErr = fmt.Errorf("mpi: deadline %v exceeded: %s: %w", d, detail, ErrStalled)
	k.poisonLocked()
}

// stuckLabelsLocked summarizes which ranks are blocked where.
func (k *coord) stuckLabelsLocked() []string {
	byLabel := map[string][]int{}
	for r := range k.state {
		st := &k.state[r]
		if st.status == statusRunning && st.waiting {
			byLabel[st.label] = append(byLabel[st.label], r)
		}
	}
	labels := make([]string, 0, len(byLabel))
	for l := range byLabel {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	out := make([]string, 0, len(labels))
	for _, l := range labels {
		out = append(out, fmt.Sprintf("%s (ranks %v)", l, byLabel[l]))
	}
	return out
}

// maybeStuckLocked is the exact deadlock detector: it fires only when every
// rank is dead, done, or blocked on a condition that cannot currently be
// satisfied. One runnable rank anywhere vetoes it. Caller holds mu.
func (k *coord) maybeStuckLocked() {
	if k.failed {
		return
	}
	stuck := 0
	for r := range k.state {
		st := &k.state[r]
		if st.status != statusRunning {
			continue
		}
		if !st.waiting || st.gen != k.gen {
			return // running, or about to wake from a released barrier: progress is still possible
		}
		stuck++
	}
	if stuck == 0 {
		return // everyone finished or died; Run reports deaths directly
	}
	deadRanks := []int{}
	for r := range k.state {
		if k.state[r].status == statusDead {
			deadRanks = append(deadRanks, r)
		}
	}
	detail := strings.Join(k.stuckLabelsLocked(), ", ")
	if k.dead > 0 {
		k.failErr = fmt.Errorf("mpi: ranks %v dead, survivors stuck in %s: %w (%w)",
			deadRanks, detail, ErrRankDead, ErrStalled)
	} else {
		k.failErr = fmt.Errorf("mpi: collective mismatch, all live ranks stuck in %s: %w", detail, ErrStalled)
	}
	k.poisonLocked()
}

// result assembles Run's outcome once the ranks have been joined (or
// abandoned on deadline).
func (k *coord) result() error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.rankPan != nil {
		panic(k.rankPan)
	}
	if k.rankErr != nil {
		return k.rankErr
	}
	if k.failErr != nil {
		return k.failErr
	}
	if k.dead > 0 {
		deadRanks := []int{}
		for r := range k.state {
			if k.state[r].status == statusDead {
				deadRanks = append(deadRanks, r)
			}
		}
		return fmt.Errorf("mpi: ranks %v vanished during the run: %w", deadRanks, ErrRankDead)
	}
	return nil
}

// barrierWait blocks rank until every rank has entered the current barrier
// generation, recording the collective's name for failure reports.
func (k *coord) barrierWait(rank int, label string) {
	if k.n == 1 {
		return
	}
	k.mu.Lock()
	if k.failed {
		k.mu.Unlock()
		panic(poisonUnwind{})
	}
	gen := k.gen
	k.count++
	if k.count == k.n {
		k.count = 0
		k.gen++
		k.cond.Broadcast()
		k.mu.Unlock()
		return
	}
	k.state[rank].waiting, k.state[rank].label, k.state[rank].gen = true, label, gen
	k.maybeStuckLocked()
	for gen == k.gen && !k.failed {
		k.cond.Wait()
	}
	k.state[rank].waiting = false
	if k.failed {
		k.mu.Unlock()
		panic(poisonUnwind{})
	}
	k.mu.Unlock()
}

// Comm is one rank's handle on the world.
type Comm struct {
	w     *World
	rank  int
	frand *rand.Rand // per-rank fault RNG, nil when injection is disarmed

	tel   *worldTel        // world telemetry handles, nil when disarmed
	scope *telemetry.Scope // this rank's comm timeline, nil when disarmed

	collSeq    int            // collective entries on this rank (crash counter)
	payloadSeq int            // payload-carrying collective entries (corruption counter)
	labelSeq   map[string]int // per-label entry counters (labeled fault points)
	sumBuf     []byte
}

// Rank returns this rank's id.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.w.size }

// Barrier blocks until every rank has entered it.
func (c *Comm) Barrier() {
	c.enterCollective("Barrier", false)
	t0 := c.collStart()
	if f := c.w.fault; f != nil {
		c.faultDelay(f.BarrierJitter)
	}
	c.w.k.barrierWait(c.rank, "Barrier")
	c.collEnd("Barrier", t0)
}

// barrier is the internal form used inside collectives: same wait, labeled
// with the enclosing collective, not counted as a separate entry.
func (c *Comm) barrier(label string) {
	if f := c.w.fault; f != nil {
		c.faultDelay(f.BarrierJitter)
	}
	c.w.k.barrierWait(c.rank, label)
}

// chunkSum is CRC32C over the little-endian encoding of a chunk.
func (c *Comm) chunkSum(a []complex128) uint32 {
	const window = 4096 // amps per staging pass
	if c.sumBuf == nil {
		c.sumBuf = make([]byte, window*16)
	}
	var crc uint32
	for off := 0; off < len(a); off += window {
		n := len(a) - off
		if n > window {
			n = window
		}
		for i, v := range a[off : off+n] {
			binary.LittleEndian.PutUint64(c.sumBuf[16*i:], math.Float64bits(real(v)))
			binary.LittleEndian.PutUint64(c.sumBuf[16*i+8:], math.Float64bits(imag(v)))
		}
		crc = crc32.Update(crc, castagnoli, c.sumBuf[:n*16])
	}
	return crc
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// post assembles this rank's board posting: checksums first (over the true
// data), then the fault layer's wire corruption, so an injected flip is
// visible to the receiver's audit exactly like real in-flight corruption.
func (c *Comm) post(chunks [][]complex128) posting {
	p := posting{chunks: chunks}
	if c.w.verifySums {
		p.sums = make([]uint32, len(chunks))
		for i, ch := range chunks {
			p.sums[i] = c.chunkSum(ch)
		}
	}
	p.chunks = c.maybeCorrupt(p.chunks)
	return p
}

// verifyChunk audits a received chunk against the sender's posted CRC.
func (c *Comm) verifyChunk(label string, src int, chunk []complex128, sums []uint32, idx int) {
	if sums == nil {
		return
	}
	if got := c.chunkSum(chunk); got != sums[idx] {
		if c.tel != nil {
			c.tel.sumFailed.Inc()
		}
		panic(collectiveError{fmt.Errorf(
			"mpi: %s chunk from rank %d failed checksum (got %08x, posted %08x): %w",
			label, src, got, sums[idx], ErrCorrupt)})
	}
	if c.tel != nil {
		c.tel.verified.Inc()
	}
}

// groupGeometry resolves the member-index machinery shared by the grouped
// collectives.
func (c *Comm) groupGeometry(bitPositions []int) (memberRank func(int) int, me int) {
	w := c.w
	var mask int
	for _, b := range bitPositions {
		if 1<<b >= w.size {
			panic(fmt.Sprintf("mpi: bit position %d out of range for %d ranks", b, w.size))
		}
		mask |= 1 << b
	}
	memberRank = func(j int) int {
		r := c.rank &^ mask
		for t, b := range bitPositions {
			if j&(1<<t) != 0 {
				r |= 1 << b
			}
		}
		return r
	}
	for t, b := range bitPositions {
		if c.rank&(1<<b) != 0 {
			me |= 1 << t
		}
	}
	return memberRank, me
}

// groupAlltoall is the all-to-all both grouped collectives are: post, then
// visit every group member's posting in delivery order. What is posted and
// how member j's posting p (from rank src) lands in this rank's buffers is
// the caller's; receive returns the amplitudes it took, counted as traffic
// unless src is this rank. me is this rank's member index.
func (c *Comm) groupAlltoall(label string, bitPositions []int, posted [][]complex128, receive func(j, me, src int, p *posting) int) {
	w := c.w
	memberRank, me := c.groupGeometry(bitPositions)
	c.enterCollective(label, true)
	t0 := c.collStart()
	if f := w.fault; f != nil {
		c.faultDelay(f.PostDelay)
	}
	w.board[c.rank] = c.post(posted)
	c.barrier(label)
	members := 1 << len(bitPositions)
	order := c.deliveryOrder(members)
	for i := 0; i < members; i++ {
		j := i
		if order != nil {
			j = order[i]
		}
		src := memberRank(j)
		n := receive(j, me, src, &w.board[src])
		if src != c.rank {
			c.countBytes(int64(16 * n))
		}
	}
	c.barrier(label)
	if c.rank == 0 {
		c.countSteps(1)
	}
	c.barrier(label)
	c.collEnd(label, t0)
}

// GroupAlltoall performs simultaneous all-to-alls within groups of ranks
// that agree on every rank bit outside bitPositions — the group-local
// all-to-alls of a q-qubit global-to-local swap (Sec. 3.4). send and recv
// are indexed by group-member index: member j is the rank whose bits at
// bitPositions spell j (bitPositions[t] holds bit t of j). With checksums on,
// every received chunk is audited against the CRC its sender posted.
func (c *Comm) GroupAlltoall(bitPositions []int, send, recv [][]complex128) {
	if n := 1 << len(bitPositions); len(send) != n || len(recv) != n {
		panic("mpi: GroupAlltoall chunk count must be 2^q")
	}
	c.groupAlltoall("GroupAlltoall", bitPositions, send, func(j, me, src int, p *posting) int {
		chunk := p.chunks[me]
		if len(chunk) != len(recv[j]) {
			panic("mpi: GroupAlltoall chunk length mismatch")
		}
		c.verifyChunk("GroupAlltoall", src, chunk, p.sums, me)
		return copy(recv[j], chunk)
	})
}

// GroupAlltoallGather is GroupAlltoall with the receive copy replaced by an
// indexed gather: every rank posts its full local buffer and each receiver
// calls gather(me, src, recv[j]) to pull the chunk it needs out of a
// source's posted buffer, where me is the receiver's member index within its
// group. This is the fused local-permutation + swap unpack of Sec. 3.4 — the
// permutation that would otherwise need its own full-state pass rides along
// inside the copy the all-to-all performs anyway. gather must fill dst
// entirely from src; it receives whole chunks (rather than a per-element
// index function) so the caller can tile the gather for cache locality. The
// mapping is the same for every source because all ranks apply the same
// local relabeling, so gather is keyed only by the receiver's member index.
//
// With checksums on, each receiver audits a source's full posted buffer
// before gathering from it — the gather output is a permutation of the
// source bytes, so the source buffer is the only thing a CRC can cover.
func (c *Comm) GroupAlltoallGather(bitPositions []int, post []complex128, recv [][]complex128, gather func(member int, src, dst []complex128)) {
	if len(recv) != 1<<len(bitPositions) {
		panic("mpi: GroupAlltoallGather chunk count must be 2^q")
	}
	c.groupAlltoall("GroupAlltoallGather", bitPositions, [][]complex128{post}, func(j, me, src int, p *posting) int {
		full := p.chunks[0]
		c.verifyChunk("GroupAlltoallGather", src, full, p.sums, 0)
		gather(me, full, recv[j])
		return len(recv[j])
	})
}

// AllreduceSum returns the sum of x over all ranks (the final reduction of
// the entropy calculation, Sec. 4.2.2).
func (c *Comm) AllreduceSum(x float64) float64 {
	c.enterCollective("AllreduceSum", false)
	t0 := c.collStart()
	w := c.w
	w.reduce[c.rank] = x
	c.barrier("AllreduceSum")
	var s float64
	for _, v := range w.reduce {
		s += v
	}
	c.barrier("AllreduceSum")
	c.collEnd("AllreduceSum", t0)
	return s
}

// AllgatherFloat64 returns every rank's contribution, indexed by rank
// (used to share per-rank probability weights for distributed sampling).
func (c *Comm) AllgatherFloat64(x float64) []float64 {
	c.enterCollective("AllgatherFloat64", false)
	t0 := c.collStart()
	w := c.w
	w.reduce[c.rank] = x
	c.barrier("AllgatherFloat64")
	out := make([]float64, w.size)
	copy(out, w.reduce)
	c.barrier("AllgatherFloat64")
	c.collEnd("AllgatherFloat64", t0)
	return out
}
