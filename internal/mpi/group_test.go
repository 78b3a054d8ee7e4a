package mpi

import (
	"fmt"
	"testing"
)

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

func TestGroupAlltoallGatherMatchesManualUnpack(t *testing.T) {
	// Every rank posts a 16-element buffer whose values encode
	// (rank, index); the gather pulls each receiver's chunk reversed. The
	// result must match what a plain GroupAlltoall of pre-reversed chunks
	// would deliver.
	const size, q, chunk = 8, 2, 4
	w := NewWorld(size)
	err := w.Run(func(c *Comm) error {
		post := make([]complex128, (1<<q)*chunk)
		for i := range post {
			post[i] = complex(float64(c.Rank()), float64(i))
		}
		recv := make([][]complex128, 1<<q)
		for j := range recv {
			recv[j] = make([]complex128, chunk)
		}
		bits := []int{0, 2}
		c.GroupAlltoallGather(bits, post, recv, func(member int, src, dst []complex128) {
			for t := range dst {
				dst[t] = src[member*chunk+len(dst)-1-t]
			}
		})
		me := c.Rank()&1 | (c.Rank()>>2&1)<<1
		for j := 0; j < 1<<q; j++ {
			src := c.Rank() &^ 0b101
			if j&1 != 0 {
				src |= 1
			}
			if j&2 != 0 {
				src |= 4
			}
			for t := 0; t < chunk; t++ {
				want := complex(float64(src), float64(me*chunk+chunk-1-t))
				if recv[j][t] != want {
					return fmt.Errorf("rank %d recv[%d][%d] = %v, want %v", c.Rank(), j, t, recv[j][t], want)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
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
