// Package mpi simulates the message-passing layer of Sec. 3.4 of Häner &
// Steiger, SC'17. Ranks run as goroutines inside one process; the
// primitives are the four collectives a schedule.Plan needs: Barrier,
// GroupExchange (the global-to-local swap, in place; its q = 1 case is the
// pairwise half-vector exchange of the per-gate scheme of [19]),
// AllreduceSum and AllgatherFloat64. GroupAlltoall, the all-to-all of
// separate send and receive chunks, is GroupExchange on a staging shard; the
// benchmark's bandwidth probe is its one caller.
// The exchange moves bytes — a shard's memory (kernels.AmpBytes), cut on
// amplitude boundaries — so one implementation serves either precision.
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
//     carries a CRC32C per posted piece — over its bytes as they lie, which
//     on a little-endian host is the wire encoding of kernels.ToWire — and
//     receivers verify what they received before it reaches their state; a
//     flipped bit surfaces as an error wrapping ErrCorrupt instead of
//     silently wrong amplitudes.
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
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qusim/internal/kernels"
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

// posting is one rank's contribution to an exchange's board: the shard it
// offers, plus (when checksums are on) a CRC32C per piece a receiver will
// take, computed from the sender's memory so receivers can audit what
// arrived.
type posting struct {
	shard []byte
	sums  []uint32 // nil when checksum verification is off
}

// World coordinates size ranks.
type World struct {
	size    int
	k       *coord
	board   []posting // board[src] posted for an exchange
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
	detail := strings.Join(k.stuckLabelsLocked(), ", ")
	if k.dead > 0 {
		k.failErr = fmt.Errorf("mpi: ranks %v dead, survivors stuck in %s: %w (%w)",
			k.deadLocked(), detail, ErrRankDead, ErrStalled)
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
		return fmt.Errorf("mpi: ranks %v vanished during the run: %w", k.deadLocked(), ErrRankDead)
	}
	return nil
}

// deadLocked lists the dead ranks. Caller holds mu.
func (k *coord) deadLocked() (dead []int) {
	for r := range k.state {
		if k.state[r].status == statusDead {
			dead = append(dead, r)
		}
	}
	return dead
}

// barrierWait blocks rank until every rank has entered the current barrier
// generation, recording the collective's name for failure reports. The
// last arriver checks that every rank is in the same collective: ranks
// whose collective sequences diverge poison the world instead of pairing
// one collective's payload with another's.
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
	k.state[rank].label = label
	if k.count == k.n {
		for r := range k.state {
			if l := k.state[r].label; l != label {
				k.failErr = fmt.Errorf("mpi: collective mismatch: rank %d in %s, rank %d in %s: %w",
					r, l, rank, label, ErrStalled)
				k.poisonLocked()
				k.mu.Unlock()
				panic(poisonUnwind{})
			}
		}
		k.count = 0
		k.gen++
		k.cond.Broadcast()
		k.mu.Unlock()
		return
	}
	k.state[rank].waiting, k.state[rank].gen = true, gen
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

	// stage holds the two pieces a GroupExchange has in flight — all the
	// memory an exchange needs beside the shard.
	stage [2][]byte
}

// Rank returns this rank's id.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.w.size }

// Barrier blocks until every rank has entered it.
func (c *Comm) Barrier() {
	c.enterCollective("Barrier", false)
	t0 := c.collStart()
	c.barrier("Barrier")
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

// chunkSum is CRC32C over a piece's bytes.
func chunkSum(b []byte) uint32 { return crc32.Checksum(b, kernels.Castagnoli) }

// verifyPiece audits a received piece — the receiver's copy, not the
// sender's memory — against the CRC its sender posted.
func (c *Comm) verifyPiece(label string, src int, piece []byte, sums []uint32, idx int) {
	if sums == nil {
		return
	}
	if got := chunkSum(piece); got != sums[idx] {
		if c.tel != nil {
			c.tel.sumFailed.Inc()
		}
		panic(collectiveError{fmt.Errorf(
			"mpi: %s piece from rank %d failed checksum (got %08x, posted %08x): %w",
			label, src, got, sums[idx], ErrCorrupt)})
	}
	if c.tel != nil {
		c.tel.verified.Inc()
	}
}

// groupGeometry resolves a group's member indices: the rank of member j, and
// this rank's own index.
func (c *Comm) groupGeometry(bitPositions []int) (memberRank func(int) int, me int) {
	var mask int
	for t, b := range bitPositions {
		if 1<<b >= c.w.size {
			panic(fmt.Sprintf("mpi: bit position %d out of range for %d ranks", b, c.w.size))
		}
		mask |= 1 << b
		me |= (c.rank >> b & 1) << t
	}
	return func(j int) int {
		r := c.rank &^ mask
		for t, b := range bitPositions {
			r |= (j >> t & 1) << b
		}
		return r
	}, me
}

// GroupAlltoall performs simultaneous all-to-alls within groups of ranks
// that agree on every rank bit outside bitPositions. send and recv are
// indexed by group-member index — member j is the rank whose bits at
// bitPositions spell j (bitPositions[t] holds bit t of j) — and hold chunks
// of one length; recv[j] receives member j's send[me]. It is the exchange:
// send is copied into one staging shard of 2^q regions, which goes through
// GroupExchange's protocol under its own label, "GroupAlltoall", and the
// regions are copied out into recv. Traffic, steps and the checksum audit
// are the exchange's.
//
// No plan executes through it (the swap is GroupExchange on the shard
// itself): its one caller outside tests is the benchmark's mpi.alltoall_gbps
// probe (bench/host.go).
func (c *Comm) GroupAlltoall(bitPositions []int, send, recv [][]complex128) {
	members := 1 << len(bitPositions)
	if len(send) != members || len(recv) != members {
		panic("mpi: GroupAlltoall chunk count must be 2^q")
	}
	chunk := len(send[0])
	shard := make([]complex128, 0, members*chunk)
	for j, ch := range send {
		if len(ch) != chunk || len(recv[j]) != chunk {
			panic("mpi: GroupAlltoall chunk length mismatch")
		}
		shard = append(shard, ch...)
	}
	c.groupExchange("GroupAlltoall", bitPositions, kernels.AmpBytes(shard), 16, exchangeBytes/16)
	for j, ch := range recv {
		copy(ch, shard[j*chunk:])
	}
}

// exchangeBytes is the most a GroupExchange moves at a time (1 MiB, 2^16
// complex128 or 2^17 complex64 amplitudes): the two pieces a rank stages are
// 2 MiB whatever its shard's size, and a piece is still in cache when it is
// verified and written home.
const exchangeBytes = 1 << 20

// GroupExchange is the group all-to-all of a q-qubit global-to-local swap
// (Sec. 3.4), in place. local is the memory of a shard of amplitudes of amp
// bytes each (kernels.AmpBytes); every rank of the group hands over a shard of
// the same length and amplitude. It is cut into 2^q equal regions of whole
// amplitudes, indexed like the members of the group (GroupAlltoall), and
// region j of this rank trades places with region me of member j; region me
// stays. The group is walked in pairwise rounds — round d pairs member me
// with member me XOR d, so every rank has exactly one partner per round and
// is that partner's — a region goes a piece of at most exchangeBytes, whole
// amplitudes, at a time, and a rank holds two staged pieces: each step reads
// the next piece from the partner's shard while the previous one is verified
// and written over the piece the partner has already read; one barrier a
// step keeps "already read" true.
//
// With checksums on, a sender posts one CRC32C per outgoing piece before the
// first step and a receiver verifies its staged copy of each piece before the
// copy touches its shard. One GroupExchange is one communication step, and
// every amplitude that changes rank is counted once, at its receiver. A
// failure inside the exchange (ErrCorrupt, a dead rank) leaves every shard
// of the group half exchanged: the shards of a failed Run are garbage.
func (c *Comm) GroupExchange(bitPositions []int, local []byte, amp int) {
	c.groupExchange("GroupExchange", bitPositions, local, amp, exchangeBytes/amp)
}

// groupExchange is GroupExchange under the collective label its stall
// reports, fault points and collective-order check name, with the piece size
// in amplitudes as a parameter, which tests set below a region's length.
func (c *Comm) groupExchange(label string, bitPositions []int, local []byte, amp, piece int) {
	w := c.w
	memberRank, me := c.groupGeometry(bitPositions)
	members := 1 << len(bitPositions)
	if amp < 1 || len(local)%(members*amp) != 0 {
		panic(fmt.Sprintf("mpi: %s shard of %d bytes does not split into %d regions of %d-byte amplitudes", label, len(local), members, amp))
	}
	region := len(local) / members
	piece = amp * max(1, min(piece, region/amp))
	pieces := (region + piece - 1) / piece
	pieceOf := func(shard []byte, j, t int) []byte { // piece t of region j
		return shard[j*region+t*piece : j*region+min((t+1)*piece, region)]
	}

	c.enterCollective(label, true)
	t0 := c.collStart()
	if f := w.fault; f != nil {
		c.faultDelay(f.PostDelay)
	}
	p := posting{shard: local}
	if w.verifySums {
		p.sums = make([]uint32, members*pieces)
		for j := 0; j < members; j++ {
			for t := 0; t < pieces && j != me; t++ {
				p.sums[j*pieces+t] = chunkSum(pieceOf(local, j, t))
			}
		}
	}
	w.board[c.rank] = p
	c.barrier(label)

	if len(c.stage[0]) < piece {
		c.stage[0], c.stage[1] = make([]byte, piece), make([]byte, piece)
	}
	// Step s stages item s and lands item s−1; item s is piece s%pieces of
	// the s/pieces'th round delivered.
	order := c.deliveryOrder(members - 1)
	partner := func(s int) int { return me ^ (order[s/pieces] + 1) }
	items := (members - 1) * pieces
	for s := 0; s <= items; s++ {
		if s < items {
			j, t := partner(s), s%pieces
			src := memberRank(j)
			theirs := w.board[src].shard
			if len(theirs) != len(local) {
				panic("mpi: " + label + " shard length mismatch")
			}
			staged := c.stage[s%2][:copy(c.stage[s%2], pieceOf(theirs, me, t))]
			c.corruptReceived(src, staged)
			c.countBytes(int64(len(staged)))
		}
		if s > 0 {
			j, t := partner(s-1), (s-1)%pieces
			home := pieceOf(local, j, t)
			staged := c.stage[(s-1)%2][:len(home)]
			src := memberRank(j)
			c.verifyPiece(label, src, staged, w.board[src].sums, me*pieces+t)
			copy(home, staged)
		}
		// Jittered, like every collective, where it posts, first receives
		// and completes; the steps between run back to back, so what a fault
		// plan injects does not grow with the number of pieces.
		if s == 0 || s == items {
			c.barrier(label)
		} else {
			w.k.barrierWait(c.rank, label)
		}
	}
	if c.rank == 0 {
		c.countSteps(1)
	}
	c.collEnd(label, t0)
}

// AllreduceSum returns the sum of x over all ranks (the final reduction of
// the entropy calculation, Sec. 4.2.2).
func (c *Comm) AllreduceSum(x float64) (sum float64) {
	c.gather("AllreduceSum", x, func(all []float64) {
		for _, v := range all {
			sum += v
		}
	})
	return sum
}

// AllgatherFloat64 returns every rank's contribution, indexed by rank
// (used to share per-rank probability weights for distributed sampling).
func (c *Comm) AllgatherFloat64(x float64) []float64 {
	out := make([]float64, c.w.size)
	c.gather("AllgatherFloat64", x, func(all []float64) { copy(out, all) })
	return out
}

// gather posts x, and once every rank has, hands read the contributions of
// all ranks, indexed by rank, before any rank may post again.
func (c *Comm) gather(label string, x float64, read func(all []float64)) {
	c.enterCollective(label, false)
	t0 := c.collStart()
	c.w.reduce[c.rank] = x
	c.barrier(label)
	read(c.w.reduce)
	c.barrier(label)
	c.collEnd(label, t0)
}
