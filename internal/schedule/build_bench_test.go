package schedule

import (
	"testing"

	"qusim/internal/circuit"
)

// BenchmarkBuildQAOA times Build on one point of the bench's qaoa16-sweep
// shape (QAOAMaxCutRing(16), 3 layers, 304 gates), where a sweep pays for
// plan construction once per parameter point.
func BenchmarkBuildQAOA(b *testing.B) {
	set := circuit.SweepParams(1, 2, 6)[1]
	c := circuit.QAOAMaxCutRing(16, set[:3], set[3:])
	opts := DefaultOptions(16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Build(c, opts); err != nil {
			b.Fatal(err)
		}
	}
}
