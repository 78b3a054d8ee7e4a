package qusim

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"qusim/internal/oocvec"
	"qusim/internal/schedule"
	"qusim/internal/telemetry"
)

// benchEnvInt reads an integer override from the environment — the
// bench-oocvec make target uses these to scale the out-of-core benchmark to
// a ≥28-qubit (multi-GiB) state while bench-smoke keeps the small default.
func benchEnvInt(name string, def int) int {
	if s := os.Getenv(name); s != "" {
		if v, err := strconv.Atoi(s); err == nil {
			return v
		}
	}
	return def
}

// BenchmarkOOCPrefetch measures what read-ahead buys the out-of-core
// pipeline: the same plan, one fused streamed pass per stage both times, at
// depth 0 (one buffer: read, compute and write take turns) and with chunk
// I/O overlapping compute through the reader/writeback goroutines (the
// prefetch/depth0 pair in BENCH_oocvec.json, which therefore measures
// overlap alone and must read ≥ 1). Both leaves report the hit rate — the
// fraction of chunks already buffered when the compute loop asked for them.
//
// Size via QUSIM_OOC_QUBITS / QUSIM_OOC_CHUNK / QUSIM_OOC_DEPTH /
// QUSIM_OOC_PREFETCH (defaults 20 / qubits−6 / 16 / 4; `make bench-oocvec`
// records 28 qubits = a 4 GiB state file).
func BenchmarkOOCPrefetch(b *testing.B) {
	n := benchEnvInt("QUSIM_OOC_QUBITS", 20)
	l := benchEnvInt("QUSIM_OOC_CHUNK", n-6)
	depth := benchEnvInt("QUSIM_OOC_DEPTH", 16)
	pf := benchEnvInt("QUSIM_OOC_PREFETCH", 4)
	circ := benchSupremacy(n, depth)
	opts := schedule.DefaultOptions(l)
	plan, err := schedule.Build(circ, opts)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name  string
		depth int
	}{
		{"depth0", 0},
		{"prefetch", pf},
	} {
		b.Run(fmt.Sprintf("n%d/%s", n, mode.name), func(b *testing.B) {
			tel := telemetry.New()
			v, err := oocvec.NewUniform(n, l, b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			defer v.Close()
			v.SetPrefetch(mode.depth)
			v.SetTelemetry(tel)
			// One full pass over the state file per streamed stage (the
			// minimum any paged executor must move); ns/op captures how far
			// each mode is from that floor.
			b.SetBytes(int64(plan.Stats.Stages) * 2 * 16 << n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := v.Run(plan); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reg := tel.Registry()
			hits := reg.Counter("oocvec.prefetch_hits").Value()
			misses := reg.Counter("oocvec.prefetch_misses").Value()
			if total := hits + misses; total > 0 {
				b.ReportMetric(100*float64(hits)/float64(total), "hit%")
				b.ReportMetric(float64(reg.Counter("oocvec.chunks_read").Value())/float64(b.N), "chunks/op")
			}
		})
	}
}
