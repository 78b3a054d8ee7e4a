package kernels

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// The persistent tuner cache: Tune's timings are machine-specific but stable
// across runs on the same machine, so re-measuring them on every process
// start (the paper's benchmarking feedback loop re-run from scratch) is
// wasted work. The cache is a small versioned JSON document keyed on the
// machine fingerprint — GOOS/GOARCH, the CPU model string, the kernel set
// (ISA) and NumCPU — and a stale or foreign-machine cache is simply ignored
// and re-measured.

// tuneCacheVersion is bumped whenever the cache schema or the meaning of a
// recorded timing changes; older files are re-measured, not migrated.
// Version 3: one timing per k, of the kernel the machine runs; versions 1–2
// recorded a sweep over kernel variants and the winner per slot.
const tuneCacheVersion = 3

type tuneCacheFile struct {
	Version int      `json:"version"`
	Key     string   `json:"key"`
	N       int      `json:"n"`
	Kmax    int      `json:"kmax"`
	Reps    int      `json:"reps"`
	Entries []Timing `json:"entries"`
}

// MachineKey fingerprints this machine for the tuner cache: a timing taken
// on different hardware (or a different core count, which changes the
// par.For partitioning) must not be reused. The kernel set is part of it
// because the model string need not tell CPUs apart (a VM's may read just
// "Intel(R) Xeon(R) Processor") and because a purego build on the same
// machine times different kernels.
func MachineKey() string {
	return fmt.Sprintf("%s/%s/%s/%s/ncpu=%d", runtime.GOOS, runtime.GOARCH, cpuModel(), ISA(), runtime.NumCPU())
}

// cpuModel returns the CPU model string from /proc/cpuinfo, or "unknown"
// where that pseudo-file does not exist (non-Linux).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			if _, val, ok := strings.Cut(name, ":"); ok {
				return strings.TrimSpace(val)
			}
		}
	}
	return "unknown"
}

// LoadTuneCache reads path and, when it matches this machine and the
// current schema version, was measured on a state of at least 2^n amplitudes
// and holds one positive timing for every k = 1…kmax, returns the recorded
// TuneResult with ok = true. Any mismatch — missing file, foreign machine,
// old version, smaller state, a k not covered — returns ok = false; a decode
// error on an existing file is also reported so callers can surface
// corruption.
func LoadTuneCache(path string, kmax, n int) (TuneResult, bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return TuneResult{}, false, nil
		}
		return TuneResult{}, false, err
	}
	var f tuneCacheFile
	if err := json.Unmarshal(data, &f); err != nil {
		return TuneResult{}, false, fmt.Errorf("kernels: tuner cache %s: %w", path, err)
	}
	if f.Version != tuneCacheVersion || f.Key != MachineKey() || f.Kmax < kmax || f.N < n {
		return TuneResult{}, false, nil
	}
	covered := map[int]bool{}
	for _, e := range f.Entries {
		covered[e.K] = e.NsPerApply > 0
	}
	for k := 1; k <= kmax; k++ {
		if !covered[k] {
			return TuneResult{}, false, nil
		}
	}
	return TuneResult{N: f.N, Timings: f.Entries}, true, nil
}

// SaveTuneCache writes the timings in res to path, atomically (write to a
// temp file in the same directory, then rename): a crash mid-write must
// leave either the old cache or none, never a torn JSON document that every
// later run fails to parse.
func SaveTuneCache(path string, kmax, reps int, res TuneResult) error {
	f := tuneCacheFile{
		Version: tuneCacheVersion,
		Key:     MachineKey(),
		N:       res.N,
		Kmax:    kmax,
		Reps:    reps,
		Entries: res.Timings,
	}
	data, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// TuneCached is Tune(5, n, 2) — every k with an unrolled kernel, two timed
// passes each — with the persistent cache in front: a warm cache for this
// machine returns its timings without running a single sweep (hit = true);
// a cold or stale cache triggers the measurement and rewrites the cache.
// Cache I/O errors are returned alongside the (still valid) result — a
// broken cache file must not take the tuner down with it.
func TuneCached(path string, n int) (TuneResult, bool, error) {
	const kmax, reps = 5, 2
	res, hit, err := LoadTuneCache(path, kmax, n)
	if hit {
		return res, true, nil
	}
	res = Tune(kmax, n, reps)
	if saveErr := SaveTuneCache(path, kmax, reps, res); saveErr != nil && err == nil {
		err = saveErr
	}
	return res, false, err
}
