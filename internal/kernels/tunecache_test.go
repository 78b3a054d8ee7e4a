package kernels

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestTuneCachedWarmRunSkipsBenchmarking(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tune.json")

	cold, hit, err := TuneCached(path, 8)
	if err != nil {
		t.Fatalf("cold TuneCached: %v", err)
	}
	if hit {
		t.Fatal("cold run reported a cache hit")
	}
	if len(cold.Timings) == 0 {
		t.Fatal("cold run produced no timings")
	}

	before := TimingSweeps()
	warm, hit, err := TuneCached(path, 8)
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
	for i, tm := range cold.Timings {
		if warm.Timings[i] != tm {
			t.Errorf("warm timing %d is %+v, the cold run measured %+v", i, warm.Timings[i], tm)
		}
	}
}

func TestLoadTuneCacheRejectsStaleFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tune.json")
	res := Tune(1, 8, 1)
	if err := SaveTuneCache(path, 1, 1, res); err != nil {
		t.Fatalf("SaveTuneCache: %v", err)
	}

	// A cache tuned only to kmax=1 cannot serve a kmax=2 request.
	if _, hit, err := LoadTuneCache(path, 2, 8); err != nil || hit {
		t.Errorf("kmax=2 load: hit=%v err=%v, want miss", hit, err)
	}

	// Nor can timings of a 2^8 state serve a request for a 2^9 one.
	if _, hit, err := LoadTuneCache(path, 1, 9); err != nil || hit {
		t.Errorf("n=9 load: hit=%v err=%v, want miss", hit, err)
	}
	if _, hit, err := LoadTuneCache(path, 1, 8); err != nil || !hit {
		t.Fatalf("kmax=1 n=8 load: hit=%v err=%v, want hit", hit, err)
	}

	// Version and machine-key mismatches are silent misses: a version 2
	// file records a winner per variant slot, not one timing per k, and a
	// cache written by another kernel set on this machine (a purego or
	// noavx512 build, or the reverse) timed different kernels. So is a torn entry
	// list, and a timing that is not positive.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	otherISA := map[string]string{"go": "avx2", "avx2": "avx512", "avx512": "avx2"}[ISA()]
	for name, mangle := range map[string]func(string) string{
		"version": func(s string) string { return strings.Replace(s, `"version": 3`, `"version": 2`, 1) },
		"key":     func(s string) string { return strings.Replace(s, `"key": "`, `"key": "other-machine/`, 1) },
		"isa":     func(s string) string { return strings.Replace(s, "/"+ISA()+"/ncpu=", "/"+otherISA+"/ncpu=", 1) },
		"entries": func(s string) string { return s[:strings.Index(s, `"entries"`)] + `"entries": []` + "\n}\n" },
		"zero":    func(s string) string { return strings.Replace(s, `"ns_per_apply": `, `"ns_per_apply": -`, 1) },
	} {
		bad := filepath.Join(dir, name+".json")
		mangled := mangle(string(data))
		if mangled == string(data) {
			t.Fatalf("%s: the mangling did not change the cache file", name)
		}
		if err := os.WriteFile(bad, []byte(mangled), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, hit, err := LoadTuneCache(bad, 1, 8); err != nil || hit {
			t.Errorf("%s mismatch: hit=%v err=%v, want silent miss", name, hit, err)
		}
	}

	// Corruption — not JSON at all, or a write torn in the middle — is an
	// error, not a silent miss.
	for name, content := range map[string]string{"corrupt": "{not json", "torn": string(data[:len(data)/2])} {
		bad := filepath.Join(dir, name+".json")
		if err := os.WriteFile(bad, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, hit, err := LoadTuneCache(bad, 1, 8); err == nil || hit {
			t.Errorf("%s cache: hit=%v err=%v, want decode error", name, hit, err)
		}
	}

	// A missing file is a silent miss.
	if _, hit, err := LoadTuneCache(filepath.Join(dir, "absent.json"), 1, 8); err != nil || hit {
		t.Errorf("missing file: hit=%v err=%v, want silent miss", hit, err)
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
