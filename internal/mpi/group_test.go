package mpi

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
	"unsafe"

	"qusim/internal/kernels"
)

// exchange is the in-place exchange of a shard of amplitudes of type T,
// piece amplitudes at a time.
func exchange[T complex64 | complex128](c *Comm, bitPositions []int, local []T, piece int) {
	c.groupExchange("GroupExchange", bitPositions, kernels.AmpBytes(local), int(unsafe.Sizeof(T(0))), piece)
}

func TestGroupAlltoallTwoBitsAmongSixteenRanks(t *testing.T) {
	// Groups over bits {0, 2}: member index j = bit0(rank) | bit2(rank)<<1.
	const size = 16
	w := NewWorld(size)
	err := w.Run(func(c *Comm) error {
		send := make([][]complex128, 4)
		recv := make([][]complex128, 4)
		for j := range send {
			send[j] = []complex128{complex(float64(c.Rank()), float64(j))}
			recv[j] = make([]complex128, 1)
		}
		c.GroupAlltoall([]int{0, 2}, send, recv)
		me := c.Rank()&1 | (c.Rank()>>2&1)<<1
		for j := 0; j < 4; j++ {
			src := c.Rank() &^ 0b101
			if j&1 != 0 {
				src |= 1
			}
			if j&2 != 0 {
				src |= 4
			}
			want := complex(float64(src), float64(me))
			if recv[j][0] != want {
				return fmt.Errorf("rank %d recv[%d] = %v, want %v", c.Rank(), j, recv[j][0], want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Traffic.Steps.Load() != 1 {
		t.Errorf("group all-to-all counted %d steps, want 1", w.Traffic.Steps.Load())
	}
}

// exchangeCase runs one in-place group exchange among size ranks over
// bitPositions, every shard holding region amplitudes of type T per region
// that encode (rank, index), moved piece amplitudes at a time, and holds the
// result to the manual block transpose: region j of a rank ends up holding
// what region me of member j held, region me what it held.
func exchangeCase[T complex64 | complex128](t *testing.T, w *World, bitPositions []int, region, piece int) {
	t.Helper()
	q := len(bitPositions)
	member := func(rank, j int) int { // the rank that is member j of rank's group
		for b, pos := range bitPositions {
			rank &^= 1 << pos
			rank |= (j >> b & 1) << pos
		}
		return rank
	}
	err := w.Run(func(c *Comm) error {
		local := make([]T, region<<q)
		for i := range local {
			local[i] = T(complex(float64(c.Rank()), float64(i)))
		}
		me := 0
		for b, pos := range bitPositions {
			me |= (c.Rank() >> pos & 1) << b
		}
		exchange(c, bitPositions, local, piece)
		for j := 0; j < 1<<q; j++ {
			for i := 0; i < region; i++ {
				want := T(complex(float64(member(c.Rank(), j)), float64(me*region+i)))
				if got := local[j*region+i]; got != want {
					return fmt.Errorf("rank %d region %d[%d] = %v, want %v", c.Rank(), j, i, got, want)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Traffic.Steps.Load(); got != 1 {
		t.Errorf("one exchange counted %d steps, want 1", got)
	}
	if got, want := w.Traffic.Bytes.Load(), int64(w.Size()*((1<<q)-1)*region)*int64(unsafe.Sizeof(T(0))); got != want {
		t.Errorf("exchange counted %d bytes, want %d (every region but a rank's own, once)", got, want)
	}
}

// alltoallCase runs GroupAlltoall on the regions of every rank's shard and
// GroupExchange on the shard itself, each in a world of its own, and holds
// the first to the second: the received regions, in order, are the exchanged
// shard, and the two count the same bytes and steps.
func alltoallCase(t *testing.T, size int, bitPositions []int, checksums bool) {
	t.Helper()
	const region = 8
	members := 1 << len(bitPositions)
	run := func(alltoall bool) ([][]complex128, *World) {
		w := NewWorld(size)
		w.SetVerifyChecksums(checksums)
		shards := make([][]complex128, size)
		err := w.Run(func(c *Comm) error {
			local := make([]complex128, region*members)
			for i := range local {
				local[i] = complex(float64(c.Rank()), float64(i))
			}
			if alltoall {
				send, recv := make([][]complex128, members), make([][]complex128, members)
				for j := range send {
					send[j], recv[j] = local[j*region:(j+1)*region], make([]complex128, region)
				}
				c.GroupAlltoall(bitPositions, send, recv)
				local = slices.Concat(recv...)
			} else {
				c.GroupExchange(bitPositions, kernels.AmpBytes(local), 16)
			}
			shards[c.Rank()] = local
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return shards, w
	}
	got, wa := run(true)
	want, we := run(false)
	for r := range want {
		if !slices.Equal(got[r], want[r]) {
			t.Fatalf("rank %d: all-to-all received %v, exchange left %v", r, got[r], want[r])
		}
	}
	if a, e := wa.Traffic.Bytes.Load(), we.Traffic.Bytes.Load(); a != e {
		t.Errorf("all-to-all counted %d bytes, exchange %d", a, e)
	}
	if a, e := wa.Traffic.Steps.Load(), we.Traffic.Steps.Load(); a != e {
		t.Errorf("all-to-all counted %d steps, exchange %d", a, e)
	}
}

// TestGroupExchangeMatchesManualTranspose: q = 1, 2, 3 on rank bits that are
// not contiguous, with pieces smaller than a region (one amplitude; a size
// that does not divide the region), equal to it and larger — clean, and with
// delayed posts, jittered barriers and shuffled rounds. GroupAlltoall on the
// shard's regions, with checksums and without, ends where the exchange does.
func TestGroupExchangeMatchesManualTranspose(t *testing.T) {
	for _, tc := range []struct {
		size int
		bits []int
	}{
		{4, []int{1}},
		{16, []int{3, 0}},
		{16, []int{0, 2}},
		{32, []int{4, 0, 2}},
		{8, []int{0, 1, 2}},
	} {
		for _, piece := range []int{1, 3, 8, 64} {
			for _, faulty := range []bool{false, true} {
				t.Run(fmt.Sprintf("ranks%d/bits%v/piece%d/faults=%v", tc.size, tc.bits, piece, faulty), func(t *testing.T) {
					w := NewWorld(tc.size)
					w.SetVerifyChecksums(true)
					if faulty {
						w.InjectFaults(DefaultFaults(int64(piece)))
					}
					exchangeCase[complex128](t, w, tc.bits, 8, piece)
					if faulty && w.FaultEvents() == 0 {
						t.Error("no fault event recorded")
					}
				})
			}
		}
		for _, checksums := range []bool{false, true} {
			t.Run(fmt.Sprintf("ranks%d/bits%v/alltoall/checksums=%v", tc.size, tc.bits, checksums), func(t *testing.T) {
				alltoallCase(t, tc.size, tc.bits, checksums)
			})
		}
	}
}

// TestGroupExchangeComplex64Shards: the exchange moves whole amplitudes of
// any size. On complex64 shards it ends at the manual transpose with pieces
// of one amplitude, three, a whole region and the default 1 MiB (2^17
// amplitudes, a region of 2^17 + 3 going in two pieces), counts 8 bytes per
// amplitude, and its checksums catch a flipped bit, which without them lands
// in the low mantissa bit of one real part of the receiver's shard.
func TestGroupExchangeComplex64Shards(t *testing.T) {
	for _, tc := range []struct{ region, piece int }{{8, 1}, {8, 3}, {8, 8}, {1<<17 + 3, exchangeBytes / 8}} {
		for _, faulty := range []bool{false, true} {
			t.Run(fmt.Sprintf("region%d/piece%d/faults=%v", tc.region, tc.piece, faulty), func(t *testing.T) {
				w := NewWorld(8)
				w.SetVerifyChecksums(true)
				if faulty {
					w.InjectFaults(DefaultFaults(int64(tc.piece)))
				}
				exchangeCase[complex64](t, w, []int{2, 0}, tc.region, tc.piece)
			})
		}
	}
	for _, checksums := range []bool{true, false} {
		w := NewWorld(2)
		w.SetVerifyChecksums(checksums)
		w.InjectFaults(&FaultPlan{Corrupt: &CorruptFault{Rank: 1, Exchange: 0}})
		shards := make([][]complex64, 2)
		err := w.Run(func(c *Comm) error {
			local := []complex64{complex(3, 4), complex(3, 4), complex(3, 4), complex(3, 4)}
			c.GroupExchange([]int{0}, kernels.AmpBytes(local), 8)
			shards[c.Rank()] = local
			return nil
		})
		if checksums {
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("complex64 exchange with checksums: err = %v, want ErrCorrupt", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("without checksums the corrupted run must complete: %v", err)
		}
		flipped := 0
		for r, shard := range shards {
			for i, a := range shard {
				if a == complex(3, 4) {
					continue
				}
				flipped++
				if r != 0 || imag(a) != 4 || math.Float32bits(real(a))^math.Float32bits(3) != 1 {
					t.Errorf("rank %d shard[%d] = %v: want only the receiver's real part's low bit flipped", r, i, a)
				}
			}
		}
		if flipped != 1 {
			t.Errorf("%d amplitudes differ, want exactly 1", flipped)
		}
	}
}

func TestGroupExchangeRejectsBadArgs(t *testing.T) {
	for name, call := range map[string]func(c *Comm){
		"bit out of range":     func(c *Comm) { c.GroupExchange([]int{5}, make([]byte, 64), 16) },
		"shard does not split": func(c *Comm) { c.GroupExchange([]int{0, 1}, make([]byte, 96), 16) },
		"region splits an amp": func(c *Comm) { c.GroupExchange([]int{0}, make([]byte, 24), 16) },
	} {
		w := NewWorld(4)
		err := w.Run(func(c *Comm) error {
			defer func() { recover() }()
			call(c)
			return fmt.Errorf("rank %d: %s: expected panic", c.Rank(), name)
		})
		if err != nil {
			t.Error(err)
		}
	}
}

func TestGroupAlltoallRejectsBadArgs(t *testing.T) {
	w := NewWorld(4)
	err := w.Run(func(c *Comm) error {
		defer func() { recover() }()
		send := [][]complex128{{1}, {2}}
		recv := [][]complex128{make([]complex128, 1), make([]complex128, 1)}
		c.GroupAlltoall([]int{5}, send, recv) // bit out of range: must panic
		return fmt.Errorf("rank %d: expected panic", c.Rank())
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRepeatedCollectivesStress(t *testing.T) {
	const size = 8
	w := NewWorld(size)
	err := w.Run(func(c *Comm) error {
		for iter := 0; iter < 200; iter++ {
			send := make([][]complex128, size)
			recv := make([][]complex128, size)
			for j := range send {
				send[j] = []complex128{complex(float64(c.Rank()*1000+iter), float64(j))}
				recv[j] = make([]complex128, 1)
			}
			c.GroupAlltoall([]int{0, 1, 2}, send, recv)
			for src := range recv {
				want := complex(float64(src*1000+iter), float64(c.Rank()))
				if recv[src][0] != want {
					return fmt.Errorf("iter %d: rank %d recv[%d] = %v, want %v",
						iter, c.Rank(), src, recv[src][0], want)
				}
			}
			if s := c.AllreduceSum(1); s != size {
				return fmt.Errorf("iter %d: allreduce %v", iter, s)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Traffic.Steps.Load() != 200 {
		t.Errorf("steps = %d, want 200", w.Traffic.Steps.Load())
	}
}

func TestWorldSizeOne(t *testing.T) {
	w := NewWorld(1)
	err := w.Run(func(c *Comm) error {
		c.Barrier()
		send := [][]complex128{{42}}
		recv := [][]complex128{make([]complex128, 1)}
		c.GroupAlltoall(nil, send, recv)
		if recv[0][0] != 42 {
			return fmt.Errorf("self all-to-all got %v", recv[0][0])
		}
		if s := c.AllreduceSum(7); s != 7 {
			return fmt.Errorf("allreduce %v", s)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Traffic.Bytes.Load() != 0 {
		t.Errorf("single rank moved %d bytes", w.Traffic.Bytes.Load())
	}
}

func TestAllgather(t *testing.T) {
	w := NewWorld(5)
	err := w.Run(func(c *Comm) error {
		got := c.AllgatherFloat64(float64(c.Rank() * c.Rank()))
		for r, v := range got {
			if v != float64(r*r) {
				return fmt.Errorf("rank %d: gathered[%d] = %v", c.Rank(), r, v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
