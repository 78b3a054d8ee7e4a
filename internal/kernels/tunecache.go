package kernels

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// The persistent tuner cache: the (k, stride class, precision) → variant
// table written by Tune is machine-specific but stable across runs on the
// same machine, so re-deriving it on every process start (the paper's
// benchmarking feedback loop re-run from scratch) is wasted work. The cache
// is a small versioned JSON document keyed on the machine fingerprint —
// GOOS/GOARCH, the CPU model string, the kernel set (ISA) and NumCPU — and
// a stale or foreign-machine cache is simply ignored and re-tuned.

// tuneCacheVersion is bumped whenever the cache schema or the meaning of a
// recorded selection changes; older files are re-tuned, not migrated.
// Version 2: the SIMD variant joined the sweep, so a version 1 winner was
// never compared against it.
const tuneCacheVersion = 2

type tuneCacheEntry struct {
	K          int     `json:"k"`
	Stride     string  `json:"stride"` // "low" or "high"
	F32        bool    `json:"f32"`
	Variant    string  `json:"variant"`
	NsPerApply float64 `json:"ns_per_apply"`
	Best       bool    `json:"best"`
}

type tuneCacheFile struct {
	Version    int              `json:"version"`
	Key        string           `json:"key"`
	N          int              `json:"n"`
	Kmax       int              `json:"kmax"`
	Reps       int              `json:"reps"`
	SplitBlock int              `json:"split_block"`
	Entries    []tuneCacheEntry `json:"entries"`
}

// MachineKey fingerprints this machine for the tuner cache: a selection
// benchmarked on different hardware (or a different core count, which
// changes the par.For partitioning) must not be reused. The kernel set is
// part of it because the model string need not tell CPUs apart (a VM's may
// read just "Intel(R) Xeon(R) Processor") and because a purego build on the
// same machine tunes a different set of variants.
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

// variantByName maps Variant.String() back to the enum for cache decoding.
func variantByName(name string) (Variant, bool) {
	for _, v := range Variants() {
		if v.String() == name {
			return v, true
		}
	}
	return Auto, false
}

func strideByName(name string) (StrideClass, bool) {
	switch name {
	case "low":
		return StrideLow, true
	case "high":
		return StrideHigh, true
	}
	return StrideLow, false
}

// LoadTuneCache reads path and, when it matches this machine, the current
// schema version and covers k = 1…kmax, installs the recorded selections
// (and Split block size) and returns the reconstructed TuneResult with
// ok = true. Any mismatch — missing file, foreign machine, old version,
// insufficient kmax, unknown variant name — returns ok = false and leaves
// the tuner state untouched; a decode error on an existing file is also
// reported so callers can surface corruption.
func LoadTuneCache(path string, kmax int) (TuneResult, bool, error) {
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
	if f.Version != tuneCacheVersion || f.Key != MachineKey() || f.Kmax < kmax {
		return TuneResult{}, false, nil
	}
	res := TuneResult{N: f.N}
	type sel struct {
		key selKey
		v   Variant
	}
	var sels []sel
	covered := map[int]bool{}
	for _, e := range f.Entries {
		v, ok := variantByName(e.Variant)
		if !ok {
			return TuneResult{}, false, nil
		}
		stride, ok := strideByName(e.Stride)
		if !ok {
			return TuneResult{}, false, nil
		}
		res.Timings = append(res.Timings, Timing{
			K: e.K, Stride: stride, F32: e.F32, Variant: v,
			NsPerApply: e.NsPerApply, Best: e.Best,
		})
		if e.Best {
			covered[e.K] = true
			sels = append(sels, sel{selKey{e.K, stride, e.F32}, v})
		}
	}
	for k := 1; k <= kmax; k++ {
		if !covered[k] {
			return TuneResult{}, false, nil
		}
	}
	// All entries validated — install atomically with respect to failures
	// above (a partially-applied foreign cache must be impossible).
	for _, s := range sels {
		SetSelectedFor(s.key.k, s.key.stride, s.key.f32, s.v)
	}
	if f.SplitBlock >= 1 {
		SetSplitBlock(f.SplitBlock)
	}
	return res, true, nil
}

// SaveTuneCache writes the tuner selections in res to path, atomically
// (write to a temp file in the same directory, then rename): a crash
// mid-write must leave either the old cache or none, never a torn JSON
// document that every later run fails to parse.
func SaveTuneCache(path string, kmax, reps int, res TuneResult) error {
	f := tuneCacheFile{
		Version:    tuneCacheVersion,
		Key:        MachineKey(),
		N:          res.N,
		Kmax:       kmax,
		Reps:       reps,
		SplitBlock: splitBlock,
	}
	for _, t := range res.Timings {
		f.Entries = append(f.Entries, tuneCacheEntry{
			K: t.K, Stride: t.Stride.String(), F32: t.F32,
			Variant: t.Variant.String(), NsPerApply: t.NsPerApply, Best: t.Best,
		})
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

// TuneCached is Tune with the persistent cache in front: a warm cache for
// this machine installs its selections without running a single timing
// sweep (hit = true); a cold or stale cache triggers the full benchmark
// sweep and rewrites the cache. Cache I/O errors are returned alongside
// the (still valid) tuning result — a broken cache file must not take the
// tuner down with it.
func TuneCached(path string, kmax, n, reps int) (TuneResult, bool, error) {
	res, hit, err := LoadTuneCache(path, kmax)
	if hit {
		return res, true, nil
	}
	res = Tune(kmax, n, reps)
	if saveErr := SaveTuneCache(path, kmax, reps, res); saveErr != nil && err == nil {
		err = saveErr
	}
	return res, false, err
}
