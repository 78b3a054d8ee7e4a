package par

import (
	"testing"
	"time"
)

// BenchmarkForShortPass is the regime of a parameter sweep on a
// cache-resident state: 30 back-to-back For passes of about 50 µs of work
// each (a QAOA point's fused clusters on a 1 MiB state), then 1 ms of
// serial caller work (the next point's plan build). One op is one such
// point. Whether a pass starts on every core at once, or waits for a
// parked worker to wake, is what moves the number.
func BenchmarkForShortPass(b *testing.B) {
	x := make([]float64, 1<<13)
	pass := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v := x[i]
			for r := 0; r < 8; r++ {
				v = v*0.999 + 1e-3
			}
			x[i] = v
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c := 0; c < 30; c++ {
			For(len(x), 1<<10, pass)
		}
		for t0 := time.Now(); time.Since(t0) < time.Millisecond; {
		}
	}
}
