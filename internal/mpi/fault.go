package mpi

import (
	"math/rand"
	"sync/atomic"
	"time"
)

// FaultPlan describes deterministic, seeded adversity injected into the
// message-passing primitives. Two families:
//
// Timing perturbations (PostDelay, ShuffleDelivery, BarrierJitter) never
// change the semantics of a correct program — they only stretch and
// reshuffle the interleaving of rank goroutines — so any result difference
// observed under them (or any data race flagged by the race detector) is a
// synchronization bug in the communication layer or in an engine built on
// top of it.
//
// Hard faults (Crash, Corrupt) DO break the run, on purpose: they model a
// node loss and an in-flight payload corruption, and exist to prove the
// detection machinery (dead-rank deadlock detection, payload checksums)
// and the checkpoint/restart path above it actually fire. Each hard fault
// fires at most once per plan, so a restarted attempt sharing the plan
// replays cleanly past the injection point.
//
// All randomness is drawn from generators derived from Seed — per rank for
// the delays, shared by all ranks for the delivery order — so a failing
// scenario replays exactly.
type FaultPlan struct {
	// Seed derives the per-rank fault RNGs. Two runs of the same program
	// under the same plan inject the identical perturbation sequence.
	Seed int64
	// PostDelay is the maximum random delay inserted before a rank posts
	// its payload to a collective's board (delayed chunk posting).
	PostDelay time.Duration
	// ShuffleDelivery randomizes the order in which a collective's payload
	// arrives — out-of-order delivery: the pairwise rounds of a
	// GroupExchange (a GroupAlltoall's too). The order is drawn from
	// Seed and the collective's number alone, the same on every rank: the
	// two partners of an exchange round must agree on which round it is, or
	// one overwrites the piece the other has not read yet.
	ShuffleDelivery bool
	// BarrierJitter is the maximum random delay inserted before a rank
	// enters any barrier, desynchronizing collective phases.
	BarrierJitter time.Duration
	// Crash, when non-nil, kills one rank at a chosen collective entry.
	Crash *CrashFault
	// Corrupt, when non-nil, flips one bit of one rank's payload in a
	// chosen exchange.
	Corrupt *CorruptFault
	// Stall, when non-nil, freezes one rank at a chosen collective entry
	// for a fixed duration — the "slow straggler / hung node" failure mode.
	// With a deadline armed (World.SetDeadline) the survivors surface
	// ErrStalled; without one the collective simply completes late.
	Stall *StallFault
}

// CrashFault makes Rank vanish — goroutine exits, no error raised, nothing
// posted — immediately on entering its Collective'th collective (0-based,
// counted per rank over Barrier, GroupExchange, AllreduceSum and
// AllgatherFloat64 entries, and GroupAlltoall where a test calls it). The
// survivors must detect the loss themselves; Run reports an error wrapping
// ErrRankDead, never a hang. Fires at most once per plan.
//
// With Label set, only collectives of that kind count — Collective becomes
// the 0-based index into the rank's entries with that label. This targets
// specific protocol points: Label "GroupExchange" kills the rank on entering
// a swap, Label "Barrier" with a checkpointed run inside the snapshot commit
// collective itself.
type CrashFault struct {
	Rank       int
	Collective int
	Label      string

	fired atomic.Bool
}

// Fired reports whether the crash has been injected.
func (c *CrashFault) Fired() bool { return c.fired.Load() }

// StallFault freezes Rank for Duration at its Collective'th collective
// entry (counted like CrashFault.Collective, with the same optional Label
// filter), modeling a hung or wildly slow node rather than a dead one. The
// stalled rank eventually proceeds; whether the run survives depends on
// the deadline policy above it. Fires at most once per plan, so a
// restarted attempt sharing the plan replays cleanly past the stall.
type StallFault struct {
	Rank       int
	Collective int
	Label      string
	Duration   time.Duration

	fired atomic.Bool
}

// Fired reports whether the stall has been injected.
func (s *StallFault) Fired() bool { return s.fired.Load() }

// CorruptFault flips the low mantissa bit of the first amplitude of the
// first piece another rank receives from Rank in its Exchange'th
// payload-carrying collective (0-based, counted per rank over GroupExchange
// and GroupAlltoall). The flip happens in the receiver's copy, after the
// sender computed its checksums, so the sender's own state stays intact and
// a receiver with SetVerifyChecksums(true) sees exactly what real in-flight
// corruption would look like. Without checksums the corruption is silent —
// which is the point. Fires at most once per plan.
type CorruptFault struct {
	Rank     int
	Exchange int

	fired atomic.Bool
}

// Fired reports whether the corruption has been injected.
func (c *CorruptFault) Fired() bool { return c.fired.Load() }

// DefaultFaults returns the standard soak configuration: small random
// delays on posts and barriers plus shuffled delivery (no hard faults).
// The delays are in the tens-of-microseconds range — large relative to
// barrier latencies, small enough to keep test wall time reasonable.
func DefaultFaults(seed int64) *FaultPlan {
	return &FaultPlan{
		Seed:            seed,
		PostDelay:       50 * time.Microsecond,
		ShuffleDelivery: true,
		BarrierJitter:   20 * time.Microsecond,
	}
}

// InjectFaults arms the world with a fault plan. It must be called before
// Run; a nil plan disarms injection. Hard-fault fire-once state lives in
// the plan, not the world, so a fresh world sharing the plan (a restart
// attempt) does not re-inject.
func (w *World) InjectFaults(fp *FaultPlan) { w.fault = fp }

// FaultEvents returns the number of perturbations injected so far (sleeps
// performed, delivery orders shuffled, crashes and corruptions fired),
// summed over all ranks. Tests use it to assert a scenario actually
// exercised the fault paths.
func (w *World) FaultEvents() int64 { return w.faultEvents.Load() }

// newFaultRand derives rank's deterministic fault RNG.
func (w *World) newFaultRand(rank int) *rand.Rand {
	if w.fault == nil {
		return nil
	}
	return rand.New(rand.NewSource(w.fault.Seed*1000003 + int64(rank)*7919 + 12345))
}

// faultDelay sleeps a random duration in [0, max) drawn from the rank's
// fault RNG. No-op when injection is disarmed or max is zero.
func (c *Comm) faultDelay(max time.Duration) {
	if c.frand == nil || max <= 0 {
		return
	}
	c.w.faultEvents.Add(1)
	time.Sleep(time.Duration(c.frand.Int63n(int64(max))))
}

// deliveryOrder returns the order of the n deliveries of the current
// payload-carrying collective: 0…n−1, or with ShuffleDelivery a shuffle drawn
// from the seed and the collective's number, the same on every rank.
func (c *Comm) deliveryOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if f := c.w.fault; f != nil && f.ShuffleDelivery {
		c.w.faultEvents.Add(1)
		rng := rand.New(rand.NewSource(f.Seed*1000003 + int64(c.payloadSeq)*7919))
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	return order
}

// enterCollective advances this rank's collective counters and fires an
// armed stall or crash when the rank reaches its injection point. Stalls
// fire before crashes, so a plan arming both at the same entry stalls
// first and then dies — the worst composed ordering.
func (c *Comm) enterCollective(label string, payload bool) {
	seq := c.collSeq
	c.collSeq++
	if payload {
		c.payloadSeq++
	}
	f := c.w.fault
	if f == nil || (f.Crash == nil && f.Stall == nil) {
		return
	}
	lseq := -1
	if (f.Crash != nil && f.Crash.Label != "") || (f.Stall != nil && f.Stall.Label != "") {
		if c.labelSeq == nil {
			c.labelSeq = make(map[string]int)
		}
		lseq = c.labelSeq[label]
		c.labelSeq[label]++
	}
	at := func(rank, coll int, lbl string) bool {
		if rank != c.rank {
			return false
		}
		if lbl == "" {
			return coll == seq
		}
		return lbl == label && coll == lseq
	}
	if st := f.Stall; st != nil && at(st.Rank, st.Collective, st.Label) &&
		st.fired.CompareAndSwap(false, true) {
		c.w.faultEvents.Add(1)
		time.Sleep(st.Duration)
	}
	if cr := f.Crash; cr != nil && at(cr.Rank, cr.Collective, cr.Label) &&
		cr.fired.CompareAndSwap(false, true) {
		c.w.faultEvents.Add(1)
		panic(rankCrashed{})
	}
}

// corruptReceived applies an armed payload corruption to a piece this rank
// just received from src: the low bit of its first byte — on a little-endian
// host the low mantissa bit of its first amplitude — flips in the receiver's
// copy; src's memory, and the checksums computed from it, are untouched.
// Every rank enters the same collectives in the same order, so the
// receiver's payload counter is the sender's.
func (c *Comm) corruptReceived(src int, piece []byte) {
	f := c.w.fault
	if f == nil || f.Corrupt == nil || len(piece) == 0 {
		return
	}
	co := f.Corrupt
	if co.Rank != src || co.Exchange != c.payloadSeq-1 || !co.fired.CompareAndSwap(false, true) {
		return
	}
	c.w.faultEvents.Add(1)
	piece[0] ^= 1
}
