package main

import (
	"fmt"
	"os"
	"slices"
)

// metricDef names one metric and its unit. The lists below are the
// benchmark's contract: ../BENCHMARK.json carries the same names (a test
// holds the two equal), and a name, once committed, keeps its meaning.
type metricDef struct {
	name, unit string
	// bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression.
	bound float64
}

// endToEndMetrics are printed by the untraced pass, once per workload.
//
// The bounds are set from the spread measured on the 2-vCPU reference
// sandbox (README.md, "Steadiness"): a shared host slows every workload by
// up to a fifth for minutes at a time, and a bound tighter than that would
// reject changes for the weather.
var endToEndMetrics = []metricDef{
	{"time_s", "s", 0.25},
	{"setup_s", "s", 0.25},
	{"peak_rss_mib", "MiB", 0.15},
}

// rssFloorMiB is the resolution of peak_rss_mib: the metric reads
// max(peak RSS, floor). Go maps its heap in 4 MiB steps and the collector's
// transient peaks decide how many get mapped, so identical runs of a process
// this small read anywhere from 12 to 26 MiB; the raw value is printed beside
// the metric.
const rssFloorMiB = 32

// perLayerMetrics are printed by the traced pass. Every workload prints
// every name; a layer that does not run on a workload (or a roofline column
// whose host probe could not be taken) reads 0.
var perLayerMetrics = func() []metricDef {
	m := []metricDef{
		{name: "host.cores", unit: "count"},
		{name: "host.llc_mib", unit: "MiB"},
		{name: "host.triad_gbps", unit: "GB/s"},
		{name: "host.fma_gflops", unit: "GFLOP/s"},
		{name: "host.disk_write_mbps", unit: "MB/s"},
		{name: "host.disk_read_mbps", unit: "MB/s"},

		{name: "circuit.gen_s", unit: "s"},
		{name: "circuit.gates", unit: "count"},

		{name: "schedule.build_s", unit: "s"},
		{name: "schedule.builds", unit: "count"},
		{name: "schedule.stages", unit: "count"},
		{name: "schedule.swaps", unit: "count"},
		{name: "schedule.clusters", unit: "count"},
		{name: "schedule.diag_ops", unit: "count"},
		{name: "schedule.local_perms", unit: "count"},
		{name: "schedule.gates_per_cluster", unit: "count"},
		{name: "schedule.accessmap_s", unit: "s"},

		{name: "statevec.alloc_s", unit: "s"},
		{name: "statevec.cluster_s", unit: "s"},
		{name: "statevec.diag_s", unit: "s"},
		{name: "statevec.perm_s", unit: "s"},
		{name: "statevec.swapbits_s", unit: "s"},
		{name: "statevec.reduce_s", unit: "s"},

		{name: "f32vec.alloc_s", unit: "s"},
		{name: "f32vec.cluster_s", unit: "s"},
		{name: "f32vec.diag_s", unit: "s"},
		{name: "f32vec.reduce_s", unit: "s"},
		{name: "f32vec.max_amp_err", unit: "abs"},
	}
	for k := 1; k <= 5; k++ {
		p := fmt.Sprintf("kernels.k%d.", k)
		m = append(m,
			metricDef{name: p + "passes", unit: "count"},
			metricDef{name: p + "s", unit: "s"},
			metricDef{name: p + "gbps", unit: "GB/s"},
			metricDef{name: p + "gflops", unit: "GFLOP/s"},
			metricDef{name: p + "roof_frac", unit: "ratio"},
		)
	}
	return append(m, []metricDef{
		{name: "kernels.diag.passes", unit: "count"},
		{name: "kernels.diag.s", unit: "s"},
		{name: "kernels.diag.gbps", unit: "GB/s"},
		{name: "kernels.diag.roof_frac", unit: "ratio"},
		{name: "kernels.perm.passes", unit: "count"},
		{name: "kernels.perm.s", unit: "s"},
		{name: "kernels.perm.gbps", unit: "GB/s"},

		{name: "par.workers", unit: "count"},
		{name: "par.dispatch_us", unit: "us"},

		{name: "dist.elapsed_s", unit: "s"},
		{name: "dist.cluster_s", unit: "s"},
		{name: "dist.diag_s", unit: "s"},
		{name: "dist.perm_s", unit: "s"},
		{name: "dist.swap_s", unit: "s"},
		{name: "dist.restarts", unit: "count"},

		{name: "mpi.steps", unit: "count"},
		{name: "mpi.bytes", unit: "bytes"},
		{name: "mpi.comm_s", unit: "s"},
		{name: "mpi.alltoall_gbps", unit: "GB/s"},

		{name: "oocvec.file_mib", unit: "MiB"},
		{name: "oocvec.create_s", unit: "s"},
		{name: "oocvec.run_s", unit: "s"},
		{name: "oocvec.read_s", unit: "s"},
		{name: "oocvec.stream_mbps", unit: "MB/s"},
		{name: "oocvec.prefetch_hits", unit: "count"},
		{name: "oocvec.prefetch_misses", unit: "count"},
		{name: "oocvec.hit_ratio", unit: "ratio"},
		{name: "oocvec.io_retries", unit: "count"},

		{name: "ckpt.written", unit: "count"},
		{name: "ckpt.skipped", unit: "count"},
		{name: "ckpt.save_s", unit: "s"},
		{name: "ckpt.save_mbps", unit: "MB/s"},
		{name: "ckpt.restore_s", unit: "s"},
		{name: "ckpt.restore_mbps", unit: "MB/s"},

		{name: "sweep.points", unit: "count"},
		{name: "sweep.point_ms_p50", unit: "ms"},
		{name: "sweep.point_ms_p95", unit: "ms"},
		{name: "sweep.build_share", unit: "ratio"},

		{name: "trace.overhead_frac", unit: "ratio"},
		{name: "trace.unattributed_frac", unit: "ratio"},
	}...)
}()

// median returns the middle of xs (mean of the two middle values for an
// even count). xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// checker counts correctness checks. Every check is one operation: the run
// reports how many were attempted and how many failed, and one failure voids
// the run's timings.
type checker struct {
	workload          string
	attempted, failed int
}

// check records one check; detail is printed only when it fails.
func (c *checker) check(name string, ok bool, format string, args ...any) {
	c.attempted++
	if ok {
		return
	}
	c.failed++
	fmt.Fprintf(os.Stderr, "bench: %s: CHECK FAILED: %s: %s\n", c.workload, name, fmt.Sprintf(format, args...))
}

// near checks |got − want| ≤ tol.
func (c *checker) near(name string, got, want, tol float64) {
	d := got - want
	c.check(name, d >= -tol && d <= tol, "got %.12g, want %.12g ± %g", got, want, tol)
}
