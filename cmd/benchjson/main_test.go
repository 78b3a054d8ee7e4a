package main

import (
	"reflect"
	"testing"
)

// A line carries any number of value/unit pairs after the iteration count.
func TestParseBenchLineMetricPairs(t *testing.T) {
	b, ok := parseBenchLine("BenchmarkWorkload/xeb/quick \t1\t2700000 ns/op\t1.65e+08 amps/s\t9e+06 samples/s")
	if !ok {
		t.Fatal("line did not parse")
	}
	want := benchmark{
		Name:       "BenchmarkWorkload/xeb/quick",
		Iterations: 1,
		Metrics:    map[string]float64{"ns/op": 2700000, "amps/s": 1.65e8, "samples/s": 9e6},
	}
	if !reflect.DeepEqual(b, want) {
		t.Errorf("parsed %+v, want %+v", b, want)
	}
}

func TestDeriveSpeedups(t *testing.T) {
	row := func(name string, ns float64) benchmark {
		return benchmark{Name: name, Metrics: map[string]float64{"ns/op": ns}}
	}
	got := deriveSpeedups([]benchmark{
		row("BenchmarkKernelPrecision/avx512/k3/f64", 50),
		row("BenchmarkKernelPrecision/avx512/k3/f32", 20),
		row("BenchmarkKernelPrecision/avx512/resident/k3/f64", 30),
		row("BenchmarkKernelFusion/separate", 90),
		row("BenchmarkKernelFusion/fused", 60),
		row("BenchmarkKernelPrecision/avx2/k3/f64", 100),
		row("BenchmarkKernelPrecision/avx2/resident/k3/f64", 60),
		row("BenchmarkKernelPrecision/go/k3/f64", 400),
		row("BenchmarkReduce/norm/f32", 10), // no f64 sibling: no row
	})
	want := []speedup{
		{"BenchmarkKernelPrecision/*/k3/f64", "avx512", "avx2", 2},
		{"BenchmarkKernelPrecision/avx512/k3", "f32", "f64", 2.5},
		{"BenchmarkKernelPrecision/*/resident/k3/f64", "avx512", "avx2", 2},
		{"BenchmarkKernelFusion", "fused", "separate", 1.5},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("deriveSpeedups:\n got %+v\nwant %+v", got, want)
	}
}
