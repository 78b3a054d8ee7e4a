package main

import (
	"reflect"
	"testing"
)

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
