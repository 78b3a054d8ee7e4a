package kernels

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestTuneCachedWarmRunSkipsBenchmarking(t *testing.T) {
	defer resetSelections()
	path := filepath.Join(t.TempDir(), "tune.json")

	cold, hit, err := TuneCached(path, 2, 8, 1)
	if err != nil {
		t.Fatalf("cold TuneCached: %v", err)
	}
	if hit {
		t.Fatal("cold run reported a cache hit")
	}
	if len(cold.Timings) == 0 {
		t.Fatal("cold run produced no timings")
	}

	resetSelections()
	before := TimingSweeps()
	warm, hit, err := TuneCached(path, 2, 8, 1)
	if err != nil {
		t.Fatalf("warm TuneCached: %v", err)
	}
	if !hit {
		t.Fatal("warm run missed the cache")
	}
	if got := TimingSweeps(); got != before {
		t.Errorf("warm run re-timed kernels: %d sweeps ran", got-before)
	}
	if len(warm.Timings) != len(cold.Timings) {
		t.Errorf("warm run reconstructed %d timings, want %d", len(warm.Timings), len(cold.Timings))
	}
	// The cache must reinstall the same selections the cold sweep chose.
	for _, tm := range cold.Timings {
		if tm.Best {
			if got := SelectedFor(tm.K, tm.Stride, tm.F32); got != tm.Variant {
				t.Errorf("k=%d stride=%s f32=%v: selected %s, want %s", tm.K, tm.Stride, tm.F32, got, tm.Variant)
			}
		}
	}
}

func TestLoadTuneCacheRejectsStaleFiles(t *testing.T) {
	defer resetSelections()
	dir := t.TempDir()
	path := filepath.Join(dir, "tune.json")
	res := Tune(1, 8, 1)
	if err := SaveTuneCache(path, 1, 1, res); err != nil {
		t.Fatalf("SaveTuneCache: %v", err)
	}

	// A cache tuned only to kmax=1 cannot serve a kmax=2 request.
	if _, hit, err := LoadTuneCache(path, 2); err != nil || hit {
		t.Errorf("kmax=2 load: hit=%v err=%v, want miss", hit, err)
	}

	// Version and machine-key mismatches are silent misses: a version 1
	// file predates the SIMD variant, and a cache written by the other
	// kernel set on this machine (a purego build, or the reverse) timed
	// different variants.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	otherISA := map[string]string{"go": "avx2", "avx2": "go"}[ISA()]
	for name, mangle := range map[string]func(string) string{
		"version": func(s string) string { return strings.Replace(s, `"version": 2`, `"version": 1`, 1) },
		"key":     func(s string) string { return strings.Replace(s, `"key": "`, `"key": "other-machine/`, 1) },
		"isa":     func(s string) string { return strings.Replace(s, "/"+ISA()+"/ncpu=", "/"+otherISA+"/ncpu=", 1) },
	} {
		bad := filepath.Join(dir, name+".json")
		mangled := mangle(string(data))
		if mangled == string(data) {
			t.Fatalf("%s: the mangling did not change the cache file", name)
		}
		if err := os.WriteFile(bad, []byte(mangled), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, hit, err := LoadTuneCache(bad, 1); err != nil || hit {
			t.Errorf("%s mismatch: hit=%v err=%v, want silent miss", name, hit, err)
		}
	}

	// Corruption is an error, not a silent miss.
	bad := filepath.Join(dir, "corrupt.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, hit, err := LoadTuneCache(bad, 1); err == nil || hit {
		t.Errorf("corrupt cache: hit=%v err=%v, want decode error", hit, err)
	}

	// A missing file is a silent miss.
	if _, hit, err := LoadTuneCache(filepath.Join(dir, "absent.json"), 1); err != nil || hit {
		t.Errorf("missing file: hit=%v err=%v, want silent miss", hit, err)
	}
}

func TestPickBestHandlesZeroNanosecondTiming(t *testing.T) {
	// Regression: a 0 ns first measurement must win against slower variants
	// instead of being treated as the "unset" sentinel.
	ts := []Timing{
		{Variant: Naive, NsPerApply: 0},
		{Variant: Split, NsPerApply: 100},
	}
	if best, ns := pickBest(ts); best != Naive || ns != 0 {
		t.Errorf("pickBest = (%s, %g), want (naive, 0)", best, ns)
	}
	// And the plain fastest-wins case still holds.
	ts = []Timing{
		{Variant: Naive, NsPerApply: 50},
		{Variant: Generated, NsPerApply: 10},
	}
	if best, _ := pickBest(ts); best != Generated {
		t.Errorf("pickBest = %s, want generated", best)
	}
}

func TestTuneSplitBlockInstallsWinner(t *testing.T) {
	// Regression for the dead-store bug: the sweep used to restore the
	// pre-sweep block size and immediately overwrite it, so a deliberately
	// bad starting value must not survive the sweep.
	old := SetSplitBlock(3) // never in the candidate set {1,2,4,8,...}
	defer SetSplitBlock(old)
	best := TuneSplitBlock(3, 10, 1)
	if got := SetSplitBlock(best); got != best {
		t.Errorf("split block = %d after sweep, want installed winner %d", got, best)
	}
	if best == 3 {
		t.Errorf("sweep returned the non-candidate starting value %d", best)
	}
}

func TestMachineKeyIsStable(t *testing.T) {
	a, b := MachineKey(), MachineKey()
	if a != b {
		t.Errorf("MachineKey not stable: %q vs %q", a, b)
	}
	if !strings.Contains(a, "ncpu=") || !strings.Contains(a, "/"+ISA()+"/") {
		t.Errorf("MachineKey %q missing the core count or the kernel set %q", a, ISA())
	}
}
