package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"qusim/internal/fsio"
	"qusim/internal/mpi"
	"qusim/internal/par"
)

// The host probe measures, in the same run as the kernels it is compared
// with, what this machine can do: sustainable memory bandwidth, scalar
// complex multiply-add rate, and sequential disk rates. The roofline columns
// (kernels.*.roof_frac) are derived from these and from nothing else; when
// the cache size cannot be read the bandwidth probe is skipped and every
// roof_frac reads 0 rather than a guess.

// llcBytes returns the largest cache the kernel reports for cpu0, 0 when
// sysfs is unreadable.
func llcBytes() int64 {
	paths, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*/size")
	var llc int64
	for _, p := range paths {
		raw, err := fsio.OS{}.ReadFile(p)
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(raw))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		case strings.HasSuffix(s, "G"):
			mult, s = 1<<30, strings.TrimSuffix(s, "G")
		}
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			llc = max(llc, v*mult)
		}
	}
	return llc
}

// triadGBps runs the STREAM triad a[i] = b[i] + s·c[i] over three arrays of
// at least four times the last-level cache each, split over the same worker
// pool the kernels use, and returns the best of three passes in GB/s
// (3 × 8 bytes per element, the STREAM convention: write-allocate traffic is
// not counted).
func triadGBps(llc int64) (gbps float64, arrayBytes int64) {
	n := int(4*llc/8) + 1
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	par.For(n, 1<<16, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			b[i], c[i] = 1, 2
		}
	})
	best := time.Duration(1<<63 - 1)
	for pass := 0; pass < 3; pass++ {
		t0 := time.Now()
		par.For(n, 1<<16, func(lo, hi int) {
			aa, bb, cc := a[lo:hi], b[lo:hi], c[lo:hi]
			for i := range aa {
				aa[i] = bb[i] + 3*cc[i]
			}
		})
		best = min(best, time.Since(t0))
	}
	if a[n/2] != 7 {
		panic("bench: triad produced a wrong value")
	}
	return 24 * float64(n) / best.Seconds() / 1e9, int64(n) * 8
}

// fmaSink keeps the compiler from discarding the multiply-add loop.
var fmaSink complex128

// fmaGFlops times a register-resident complex multiply-add loop (four
// independent chains per core, 8 FLOP per z = z·w + c) on every core and
// returns the aggregate GFLOP/s — the scalar compute roof of the kernels,
// which are scalar Go as well.
func fmaGFlops() float64 {
	const iters = 1 << 24
	cores := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	sinks := make([]complex128, cores)
	t0 := time.Now()
	for g := 0; g < cores; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := complex(0.999999, 0.001)
			c := complex(1e-9, -1e-9)
			z0, z1, z2, z3 := complex(1, 0), complex(0, 1), complex(-1, 0), complex(0, -1)
			for i := 0; i < iters; i++ {
				z0 = z0*w + c
				z1 = z1*w + c
				z2 = z2*w + c
				z3 = z3*w + c
			}
			sinks[g] = z0 + z1 + z2 + z3
		}(g)
	}
	wg.Wait()
	dt := time.Since(t0).Seconds()
	for _, s := range sinks {
		fmaSink += s
	}
	return 8 * 4 * iters * float64(cores) / dt / 1e9
}

// diskMBps writes then reads size bytes sequentially through fsio in dir and
// returns both rates. The write is synced before its clock stops; the read
// comes straight after, so it is served largely from the page cache — the
// same conditions the out-of-core state file and the checkpoint shards see.
func diskMBps(dir string, size int64) (write, read float64, err error) {
	fs := fsio.OS{}
	f, err := fs.CreateTemp(dir, "diskprobe-*")
	if err != nil {
		return 0, 0, fmt.Errorf("disk probe: %w", err)
	}
	name := f.Name()
	defer func() { _ = fs.Remove(name) }() // scratch file; the work dir is removed anyway
	block := make([]byte, 4<<20)
	for i := range block {
		block[i] = byte(i)
	}
	t0 := time.Now()
	for done := int64(0); done < size; done += int64(len(block)) {
		if _, err := f.Write(block); err != nil {
			f.Close()
			return 0, 0, fmt.Errorf("disk probe write: %w", err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, 0, fmt.Errorf("disk probe sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return 0, 0, fmt.Errorf("disk probe close: %w", err)
	}
	write = float64(size) / time.Since(t0).Seconds() / 1e6

	r, err := fs.Open(name)
	if err != nil {
		return 0, 0, fmt.Errorf("disk probe: %w", err)
	}
	defer r.Close()
	t0 = time.Now()
	got, err := io.Copy(io.Discard, r)
	if err != nil {
		return 0, 0, fmt.Errorf("disk probe read: %w", err)
	}
	if got != size {
		return 0, 0, fmt.Errorf("disk probe read %d of %d bytes", got, size)
	}
	read = float64(size) / time.Since(t0).Seconds() / 1e6
	return write, read, nil
}

// dispatchMicros returns the median cost of one par.For call over an empty
// body — the fixed price every kernel sweep pays, which is what the
// cache-resident sweep workload is made of.
func dispatchMicros() float64 {
	const calls = 10000
	ds := make([]float64, calls)
	for i := range ds {
		t0 := time.Now()
		par.For(1<<20, 1, func(lo, hi int) {})
		ds[i] = float64(time.Since(t0)) / 1e3
	}
	return median(ds)
}

// alltoallGBps times a GroupAlltoall among ranks in-process ranks on its
// own: every rank sends shardAmps/ranks amplitudes to every other rank, the
// traffic of one global-to-local swap of log2(ranks) qubits. Rates count the
// bytes that cross a rank boundary, as mpi.Traffic does.
func alltoallGBps(ranks, shardAmps int) (float64, error) {
	bits := make([]int, 0, 8)
	for b := 0; 1<<b < ranks; b++ {
		bits = append(bits, b)
	}
	const rounds = 4
	w := mpi.NewWorld(ranks)
	var elapsed time.Duration
	err := w.Run(func(c *mpi.Comm) error {
		local := make([]complex128, shardAmps)
		scratch := make([]complex128, shardAmps)
		chunk := shardAmps / ranks
		send, recv := make([][]complex128, ranks), make([][]complex128, ranks)
		for j := range send {
			send[j] = local[j*chunk : (j+1)*chunk]
			recv[j] = scratch[j*chunk : (j+1)*chunk]
		}
		c.Barrier()
		t0 := time.Now()
		for r := 0; r < rounds; r++ {
			c.GroupAlltoall(bits, send, recv)
		}
		c.Barrier()
		if c.Rank() == 0 {
			elapsed = time.Since(t0)
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("alltoall probe: %w", err)
	}
	return float64(w.Traffic.Bytes.Load()) / elapsed.Seconds() / 1e9, nil
}
