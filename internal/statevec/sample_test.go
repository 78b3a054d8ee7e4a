package statevec

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
)

// The reference the running-sum walk is held to: inverse-CDF sampling with
// the CDF in memory, one float64 per amplitude, and a binary search per draw
// — how Sample drew its shots before Sampler. Every test below compares
// against it bit for bit.

// cdfOf returns the cumulative distribution of amps: cdf[i+1] − cdf[i] is
// bucket i's |a|².
func cdfOf(amps []complex128) []float64 {
	cdf := make([]float64, len(amps)+1)
	for i, a := range amps {
		cdf[i+1] = cdf[i] + real(a)*real(a) + imag(a)*imag(a)
	}
	return cdf
}

// cdfSample draws shots as Sample did with the whole CDF.
func cdfSample(amps []complex128, rng *rand.Rand, shots int) []int {
	cdf := cdfOf(amps)
	total := cdf[len(cdf)-1]
	out := make([]int, shots)
	for s := range out {
		out[s] = searchCDF(cdf, rng.Float64()*total)
	}
	return out
}

// searchCDF returns the bucket of the cumulative distribution cdf (bucket i
// spans [cdf[i], cdf[i+1])) that contains u, skipping zero-width buckets: a
// plain binary search returns the FIRST boundary ≥ u, so a draw landing
// exactly on a boundary shared by empty buckets would select a
// zero-probability state.
func searchCDF(cdf []float64, u float64) int {
	m := len(cdf) - 1
	idx := sort.SearchFloat64s(cdf[1:], u)
	// A bucket whose right edge is still ≤ u cannot contain u — advance
	// past the zero-width run the search may have landed on.
	for idx < m-1 && cdf[idx+1] <= u {
		idx++
	}
	if idx >= m {
		idx = m - 1
	}
	// If u fell at or beyond the final boundary (floating-point edge of
	// u = total), back out of any trailing zero-width buckets.
	for idx > 0 && cdf[idx+1] == cdf[idx] {
		idx--
	}
	return idx
}

// randomAmps returns 2^n Gaussian amplitudes, about a quarter of them
// exactly zero.
func randomAmps(rng *rand.Rand, n int) []complex128 {
	amps := make([]complex128, 1<<n)
	for i := range amps {
		if rng.Intn(4) != 0 {
			amps[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	return amps
}

// resolveAmps returns the buckets of draws against amps by the walk.
func resolveAmps(amps []complex128, draws []float64) []int {
	return Resolve(draws, func(s *Sampler) { FeedAmps(s, amps) })
}

// TestSamplerMatchesCDF: every shot of Sample equals the CDF reference's —
// random states with runs of zeros, one-hot and all-zero states — and so
// does every draw put on a bucket boundary, at the total or past it.
func TestSamplerMatchesCDF(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for c := 0; c < 400; c++ {
		n := 1 + c%12
		amps := randomAmps(rng, n)
		switch c % 10 {
		case 7: // a run of zeros a quarter of the state long
			clear(amps[len(amps)/4 : len(amps)/2])
		case 8: // one-hot
			clear(amps)
			amps[rng.Intn(len(amps))] = complex(0, 1)
		case 9: // all zero
			clear(amps)
		}
		seed := rng.Int63()
		got := FromAmplitudes(amps).Sample(rand.New(rand.NewSource(seed)), 3000)
		if want := cdfSample(amps, rand.New(rand.NewSource(seed)), 3000); !slices.Equal(got, want) {
			t.Fatalf("case %d (n=%d): Sample differs from the CDF reference", c, n)
		}

		cdf := cdfOf(amps)
		total := cdf[len(cdf)-1]
		draws := append(slices.Clone(cdf), total*(1+0x1p-52), 2*total, math.Inf(1))
		for i, b := range resolveAmps(amps, draws) {
			if want := searchCDF(cdf, draws[i]); b != want {
				t.Fatalf("case %d (n=%d): draw %v (total %v) resolved to %d, the CDF to %d", c, n, draws[i], total, b, want)
			}
		}
	}
	if got := resolveAmps(make([]complex128, 8), []float64{0, 0, 1}); !slices.Equal(got, []int{0, 0, 0}) {
		t.Errorf("all-zero state resolved to %v, want bucket 0 for every draw", got)
	}
}

// TestSamplerSkipsZeroWidthBuckets: draws landing exactly on a boundary
// shared with zero-width buckets, at the total and past it, resolve into a
// bucket of positive width, through the weights walk that picks a rank.
func TestSamplerSkipsZeroWidthBuckets(t *testing.T) {
	// Running sums 0.25, 0.25, 0.25, 0.75, 0.75, 1, 1, 1.
	weights := []float64{0.25, 0, 0, 0.5, 0, 0.25, 0, 0}
	cases := []struct {
		u    float64
		want int
	}{
		{0, 0},    // left edge of the distribution
		{0.1, 0},  // interior of bucket 0
		{0.25, 3}, // boundary shared by zero-width buckets 1 and 2
		{0.5, 3},  // interior of bucket 3
		{0.75, 5}, // boundary shared by zero-width bucket 4
		{0.9, 5},  // interior of bucket 5
		{1.0, 5},  // u == total: trailing zero-width buckets 6, 7
		{1.5, 5},  // beyond total (floating-point slop on u = rng*total)
	}
	draws := make([]float64, len(cases))
	for i, tc := range cases {
		draws[i] = tc.u
	}
	for i, got := range Resolve(draws, func(s *Sampler) { s.Weights(weights) }) {
		if got != cases[i].want {
			t.Errorf("draw %v resolved to bucket %d, want %d", cases[i].u, got, cases[i].want)
		}
	}
	// All mass at the end: leading zero-width buckets.
	if got := Resolve([]float64{0}, func(s *Sampler) { s.Weights([]float64{0, 0, 1}) })[0]; got != 2 {
		t.Errorf("leading zeros, u=0: bucket %d, want 2", got)
	}
}

// TestSampleGoldenShots pins the first 32 shots of a seeded Sample: they
// move only if the draws or their resolution do.
func TestSampleGoldenShots(t *testing.T) {
	v := FromAmplitudes(randomAmps(rand.New(rand.NewSource(1)), 10))
	want := []int{157, 276, 39, 84, 638, 947, 455, 203, 211, 105, 644, 893, 396, 408, 644, 928,
		459, 14, 557, 919, 530, 147, 571, 503, 554, 963, 787, 372, 597, 320, 820, 378}
	if got := v.Sample(rand.New(rand.NewSource(2)), 32); !slices.Equal(got, want) {
		t.Errorf("shots %v, want %v", got, want)
	}
}

// TestSampleHoldsNoCDF: 10⁴ shots beside a 2^20-amplitude state allocate
// per shot, not per amplitude — well under the 8 MiB a CDF would take.
func TestSampleHoldsNoCDF(t *testing.T) {
	v := NewUniform(20)
	rng := rand.New(rand.NewSource(5))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	v.Sample(rng, 10_000)
	runtime.ReadMemStats(&m1)
	got := m1.TotalAlloc - m0.TotalAlloc
	t.Logf("Sample of 10⁴ shots allocated %d bytes", got)
	if got >= 1<<20 {
		t.Errorf("Sample of 10⁴ shots allocated %d bytes beside a 2^20 state, want < 1 MiB", got)
	}
}

// FuzzSampler holds the walk to the CDF reference on fuzzed amplitudes —
// exact zeros, subnormals, squares that underflow, and one spike that can
// swallow every bucket after it — and fuzzed draws: fractions of the total,
// bucket boundaries, and draws past the total. The same amplitudes narrowed
// to complex64 are fed too, against the reference on their widened values.
func FuzzSampler(f *testing.F) {
	f.Add([]byte{1, 0, 0, 2, 3, 7}, uint16(2), int8(0), []byte{0, 0, 1, 3, 2, 255, 0, 255})
	f.Add([]byte{0, 0, 0, 0}, uint16(0), int8(-128), []byte{0, 0, 0, 255, 1, 128})
	f.Add([]byte{2, 2, 1, 1, 5, 9, 0, 3}, uint16(5), int8(127), []byte{1, 64, 1, 192, 2, 7})
	f.Fuzz(func(t *testing.T, mags []byte, spikeAt uint16, spikeExp int8, spec []byte) {
		if len(mags) == 0 || len(mags) > 1<<12 {
			return
		}
		amps := make([]complex128, len(mags))
		for i, m := range mags {
			x := float64(m >> 2)
			switch m & 3 {
			case 1: // subnormal
				amps[i] = complex(x*0x1p-1074, 0)
			case 2:
				amps[i] = complex(x/64, -x/128)
			case 3: // |a|² underflows
				amps[i] = complex(0, x*0x1p-540)
			}
		}
		if spikeExp != 0 {
			amps[int(spikeAt)%len(amps)] = complex(math.Ldexp(1.5, 4*int(spikeExp)), 0)
		}
		narrow, widened := make([]complex64, len(amps)), make([]complex128, len(amps))
		for i, a := range amps {
			narrow[i] = complex64(a)
			widened[i] = complex128(narrow[i])
		}
		checkSampler(t, amps, spec, func(s *Sampler) { FeedAmps(s, amps) })
		checkSampler(t, widened, spec, func(s *Sampler) { FeedAmps(s, narrow) })
	})
}

// checkSampler holds the total of feed and the buckets it resolves draws
// into, the draws drawn by spec, to the CDF of amps.
func checkSampler(t *testing.T, amps []complex128, spec []byte, feed func(*Sampler)) {
	t.Helper()
	cdf := cdfOf(amps)
	total := cdf[len(cdf)-1]
	var draws []float64
	for i := 0; i+1 < len(spec); i += 2 {
		b := float64(spec[i+1])
		switch spec[i] % 3 {
		case 0: // a fraction of the total, the total itself at 255
			draws = append(draws, total*b/255)
		case 1: // a bucket boundary
			draws = append(draws, cdf[int(spec[i+1])*len(cdf)/256])
		case 2: // past the total
			draws = append(draws, total+total*b/255)
		}
	}
	var sum Sampler
	feed(&sum)
	if math.Float64bits(sum.acc) != math.Float64bits(total) {
		t.Fatalf("total %v, the CDF's %v", sum.acc, total)
	}
	for i, b := range Resolve(draws, feed) {
		if want := searchCDF(cdf, draws[i]); b != want {
			t.Fatalf("draw %v (total %v) resolved to %d, the CDF to %d", draws[i], total, b, want)
		}
	}
}
