package statevec

import (
	"cmp"
	"math/rand"
	"slices"
)

// Sample draws shots basis states from the output distribution (Draw).
func (v *State[T]) Sample(rng *rand.Rand, shots int) []int {
	return Draw(rng, shots, func(s *Sampler) { FeedAmps(s, v.Amps) })
}

// DrawUnit is the sampler of a state held in units — dist's ranks, or a
// whole state as its one unit: a stream seeded by seed assigns each of shots
// shots to a unit by the units' weights (their Σ|a|²), the same in every
// unit, and unit u draws the in-unit index of each of its shots from a
// stream of its own, seeded seed·31 + u + 1, over the buckets feed hands it.
// It returns unit u's shots, as indices into the shots in increasing order,
// and their in-unit indices.
func DrawUnit(seed int64, shots int, weights []float64, u int, feed func(*Sampler)) (mine, idx []int) {
	for s, w := range Draw(rand.New(rand.NewSource(seed)), shots, func(s *Sampler) { s.Weights(weights) }) {
		if w == u {
			mine = append(mine, s)
		}
	}
	if len(mine) == 0 {
		return nil, nil
	}
	return mine, Draw(rand.New(rand.NewSource(seed*31+int64(u)+1)), len(mine), feed)
}

// Draw is inverse-CDF sampling without the CDF: one feed of the buckets
// totals them, the draws rng.Float64()·total follow in shot order, and a
// second feed resolves them (Resolve).
func Draw(rng *rand.Rand, shots int, feed func(*Sampler)) []int {
	var sum Sampler
	feed(&sum)
	draws := make([]float64, shots)
	for i := range draws {
		draws[i] = rng.Float64() * sum.acc
	}
	return Resolve(draws, feed)
}

// Resolve returns the bucket of each draw, in draw order, for the buckets
// feed hands the Sampler. A draw lands in the first bucket whose running
// sum exceeds it, and one at or past the total in the last bucket whose sum
// moved (bucket 0 if none did): a bucket of zero width is never picked.
func Resolve(draws []float64, feed func(*Sampler)) []int {
	s := &Sampler{draws: draws, order: make([]int, len(draws)), out: make([]int, len(draws))}
	for i := range s.order {
		s.order[i] = i
	}
	slices.SortFunc(s.order, func(a, b int) int {
		x, y := draws[a], draws[b]
		if x != x || y != y { // NaN (an infinite total's 0·Inf) sorts last, as if past the total
			return cmp.Compare(y, x)
		}
		return cmp.Compare(x, y)
	})
	feed(s)
	for _, d := range s.order[s.next:] {
		s.out[d] = s.moved
	}
	return s.out
}

// Sampler walks the buckets fed to it in index order holding nothing but
// their running sum, a CDF's recurrence (acc + re·re + im·im per amplitude,
// acc + w per weight): totals and buckets are bitwise a CDF search's.
type Sampler struct {
	draws    []float64
	order    []int // draw indices by draw; order[next:] are unresolved
	out      []int // each draw's bucket
	next     int
	n, moved int     // buckets fed; the last whose sum moved
	acc      float64 // running sum
}

// FeedAmps feeds s each amplitude's probability |a|², taken in float64, as
// the next bucket.
func FeedAmps[T Amp](s *Sampler, amps []T) {
	acc, moved, n := s.acc, s.moved, s.n
	for i, x := range amps {
		a := complex128(x)
		sum := acc + real(a)*real(a) + imag(a)*imag(a)
		if sum != acc {
			moved = n + i // n held in a register: a CMOV, not a branch
		}
		s.resolve(n+i, sum)
		acc = sum
	}
	s.acc, s.moved, s.n = acc, moved, n+len(amps)
}

// Weights feeds each weight as the next bucket.
func (s *Sampler) Weights(weights []float64) {
	acc, moved, n := s.acc, s.moved, s.n
	for i, w := range weights {
		sum := acc + w
		if sum != acc {
			moved = n + i
		}
		s.resolve(n+i, sum)
		acc = sum
	}
	s.acc, s.moved, s.n = acc, moved, n+len(weights)
}

// resolve puts the unresolved draws below the running sum acc into bucket b.
func (s *Sampler) resolve(b int, acc float64) {
	for ; s.next < len(s.order) && s.draws[s.order[s.next]] < acc; s.next++ {
		s.out[s.order[s.next]] = b
	}
}
