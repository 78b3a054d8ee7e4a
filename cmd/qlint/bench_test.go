package main

import (
	"bytes"
	"testing"
	"time"
)

// qlintBudget is the latency ceiling for a full-repo pass. Lint that
// outgrows it stops being something people run before every push, so the
// benchmark doubles as a regression gate, not just a measurement.
const qlintBudget = 30 * time.Second

// BenchmarkQlint times a cold full-repo lint (loader, type checker, and
// all seven analyzers over every package, stdlib type-checked from source).
func BenchmarkQlint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var stdout, stderr bytes.Buffer
		start := time.Now()
		if code := run([]string{"./..."}, &stdout, &stderr); code != 0 {
			b.Fatalf("qlint exited %d:\n%s%s", code, stdout.String(), stderr.String())
		}
		if d := time.Since(start); d > qlintBudget {
			b.Fatalf("full-repo lint took %v, over the %v budget", d, qlintBudget)
		}
	}
}
