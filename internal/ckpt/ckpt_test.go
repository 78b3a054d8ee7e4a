package ckpt

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"qusim/internal/fsio"
	"qusim/internal/kernels"
)

func testMeta(stage int) Meta {
	return Meta{PlanHash: "abc123", N: 6, L: 4, Ranks: 4, NextStage: stage}
}

// pieceAmps is how many complex128 amplitudes one write piece holds.
const pieceAmps = pieceBytes / 16

func testAmps(rank, n int) []complex128 {
	rng := rand.New(rand.NewSource(int64(rank) + 99))
	amps := make([]complex128, n)
	for i := range amps {
		amps[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return amps
}

// onFS returns the writer of the testMeta run in dir on fs, without
// telemetry.
func onFS(fs fsio.FS, dir string) *Writer {
	return NewWriter(&Policy{Dir: dir, FS: fs}, testMeta(0), nil)
}

// osWriter is onFS on the real file system.
func osWriter(dir string) *Writer { return onFS(nil, dir) }

// writeShard writes a full in-memory amplitude slice as one shard.
func writeShard(w *Writer, meta Meta, rank int, amps []complex128) (ShardInfo, error) {
	sw, err := w.newShardWriter(meta, rank, len(amps))
	if err != nil {
		return ShardInfo{}, err
	}
	if err := sw.Write(kernels.AmpBytes(amps)); err != nil {
		sw.Abort()
		return ShardInfo{}, err
	}
	return sw.Close()
}

// writeCheckpoint commits a full 4-rank checkpoint at the given stage
// through w and returns the manifest.
func writeCheckpoint(t *testing.T, w *Writer, stage int) *Manifest {
	t.Helper()
	meta := testMeta(stage)
	shards := make([]ShardInfo, meta.Ranks)
	for r := 0; r < meta.Ranks; r++ {
		info, err := writeShard(w, meta, r, testAmps(r, 1<<meta.L))
		if err != nil {
			t.Fatalf("WriteShard rank %d: %v", r, err)
		}
		shards[r] = info
	}
	m, err := w.commit(meta, shards)
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	return m
}

func TestShardRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := writeCheckpoint(t, osWriter(dir), 3)
	for r := 0; r < m.Ranks; r++ {
		want := testAmps(r, 1<<m.L)
		got := make([]complex128, len(want))
		if err := osWriter(dir).StreamShard(m, r, kernels.AmpBytes(got), nil); err != nil {
			t.Fatalf("ReadShard rank %d: %v", r, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("rank %d amp %d: got %v want %v", r, i, got[i], want[i])
			}
		}
	}
}

// TestManifestWidthIsChecked: a manifest may record complex64's 8 bytes per
// amplitude or nothing (complex128); any other width makes it invalid.
func TestManifestWidthIsChecked(t *testing.T) {
	for _, width := range []int{0, 8, 4, 16} {
		w, meta := osWriter(t.TempDir()), testMeta(2)
		meta.AmpBytes = width
		shards := make([]ShardInfo, meta.Ranks)
		for r := range shards {
			shards[r] = ShardInfo{Rank: r, File: shardName(2, r), Amps: 1 << meta.L}
		}
		if _, err := w.commit(meta, shards); err != nil {
			t.Fatal(err)
		}
		_, err := w.loadManifest(filepath.Join(w.pol.Dir, manifestName(2)))
		if valid := width == 0 || width == 8; valid != (err == nil) || err != nil && !errors.Is(err, ErrInvalid) {
			t.Errorf("width %d: loadManifest = %v", width, err)
		}
	}
}

func TestCommitIsTheCommitPoint(t *testing.T) {
	// Shards without a manifest are not a checkpoint: FindRestorable must
	// ignore them.
	dir := t.TempDir()
	meta := testMeta(1)
	for r := 0; r < meta.Ranks; r++ {
		if _, err := writeShard(osWriter(dir), meta, r, testAmps(r, 1<<meta.L)); err != nil {
			t.Fatal(err)
		}
	}
	m, err := FindRestorable(dir, meta)
	if err != nil || m != nil {
		t.Fatalf("uncommitted shards reported restorable: %v, %v", m, err)
	}
}

func TestFindRestorablePicksNewest(t *testing.T) {
	dir := t.TempDir()
	writeCheckpoint(t, osWriter(dir), 1)
	writeCheckpoint(t, osWriter(dir), 4)
	m, err := FindRestorable(dir, testMeta(0))
	if err != nil || m == nil {
		t.Fatalf("FindRestorable: %v, %v", m, err)
	}
	if m.NextStage != 4 {
		t.Fatalf("restored stage %d, want 4", m.NextStage)
	}
}

func TestFindRestorableFallsBackPastCorruptShard(t *testing.T) {
	dir := t.TempDir()
	writeCheckpoint(t, osWriter(dir), 1)
	m4 := writeCheckpoint(t, osWriter(dir), 4)
	// Flip one payload bit in a stage-4 shard: recovery must fall back to
	// the stage-1 checkpoint rather than load corrupt data.
	corruptFile(t, filepath.Join(dir, m4.Shards[2].File), 60)
	m, err := FindRestorable(dir, testMeta(0))
	if err != nil || m == nil {
		t.Fatalf("FindRestorable: %v, %v", m, err)
	}
	if m.NextStage != 1 {
		t.Fatalf("restored stage %d, want fallback to 1", m.NextStage)
	}
}

func TestFindRestorableRejectsForeignPlan(t *testing.T) {
	dir := t.TempDir()
	writeCheckpoint(t, osWriter(dir), 2)
	want := testMeta(0)
	want.PlanHash = "a-different-circuit"
	m, err := FindRestorable(dir, want)
	if err != nil || m != nil {
		t.Fatalf("checkpoint of a different plan reported restorable: %v, %v", m, err)
	}
}

func TestCommitPrunesOldCheckpoints(t *testing.T) {
	dir := t.TempDir()
	for _, stage := range []int{1, 2, 3, 4} {
		writeCheckpoint(t, osWriter(dir), stage)
	}
	manifests, _ := filepath.Glob(filepath.Join(dir, "manifest-*.json"))
	if len(manifests) != 2 {
		t.Fatalf("%d manifests kept, want 2: %v", len(manifests), manifests)
	}
	shards, _ := filepath.Glob(filepath.Join(dir, "shard-*.ckpt"))
	if len(shards) != 8 {
		t.Fatalf("%d shards kept, want 8: %v", len(shards), shards)
	}
	strays, _ := filepath.Glob(filepath.Join(dir, ".tmp-*"))
	if len(strays) != 0 {
		t.Fatalf("temp files survived pruning: %v", strays)
	}
}

func TestShardWriterLengthEnforced(t *testing.T) {
	dir := t.TempDir()
	meta := testMeta(0)
	sw, err := osWriter(dir).newShardWriter(meta, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Write(kernels.AmpBytes(make([]complex128, 8))); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Close(); err == nil {
		t.Fatal("short shard committed")
	}
	files, _ := os.ReadDir(dir)
	if len(files) != 0 {
		t.Fatalf("failed shard left files behind: %v", files)
	}
	sw, err = osWriter(dir).newShardWriter(meta, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Write(kernels.AmpBytes(make([]complex128, 8))); err == nil {
		t.Fatal("overlong shard accepted")
	}
	sw.Abort()
}

// corruptFile flips one bit at the given byte offset (from the end if
// negative).
//
//qlint:ignore atomicrename deliberately fabricates and corrupts on-disk checkpoint bytes to test that recovery rejects them; durability ordering is the property under attack, not in use
func corruptFile(t *testing.T, path string, off int) {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if off < 0 {
		off = len(blob) + off
	}
	blob[off] ^= 0x10
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
}

// --- satellite: manifest/shard decoding vs truncated, bit-flipped and
// version-skewed files. Recovery must reject corrupt snapshots, never load
// them. ---------------------------------------------------------------------

//qlint:ignore atomicrename deliberately fabricates and corrupts on-disk checkpoint bytes to test that recovery rejects them; durability ordering is the property under attack, not in use
func TestShardDecodeRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	m := writeCheckpoint(t, osWriter(dir), 2)
	path := filepath.Join(dir, m.Shards[1].File)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	restore := func() {
		if err := os.WriteFile(path, pristine, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	read := func() error {
		dst := make([]complex128, m.Shards[1].Amps)
		return osWriter(dir).StreamShard(m, 1, kernels.AmpBytes(dst), nil)
	}

	cases := []struct {
		name    string
		mutate  func()
		wantSub string
	}{
		{"magic", func() { corruptFile(t, path, 0) }, "magic"},
		{"preamble version", func() { corruptFile(t, path, 4) }, "version"},
		{"header length", func() { corruptFile(t, path, 8) }, ""},
		{"header body", func() { corruptFile(t, path, 14) }, ""},
		{"payload bit flip", func() { corruptFile(t, path, len(pristine)/2) }, "checksum"},
		{"trailer bit flip", func() { corruptFile(t, path, -2) }, "checksum"},
		{"truncated mid-payload", func() { os.WriteFile(path, pristine[:len(pristine)/2], 0o644) }, ""},
		{"truncated trailer", func() { os.WriteFile(path, pristine[:len(pristine)-3], 0o644) }, "trailer"},
		{"empty file", func() { os.WriteFile(path, nil, 0o644) }, ""},
		{"trailing garbage", func() { os.WriteFile(path, append(append([]byte{}, pristine...), 0xFF), 0o644) }, "garbage"},
		{"missing file", func() { os.Remove(path) }, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			restore()
			if err := read(); err != nil {
				t.Fatalf("pristine shard rejected: %v", err)
			}
			tc.mutate()
			err := read()
			if err == nil {
				t.Fatal("corrupt shard loaded without error")
			}
			if !errors.Is(err, ErrInvalid) {
				t.Fatalf("corruption error does not wrap ErrInvalid: %v", err)
			}
			if tc.wantSub != "" && !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
	restore()
}

//qlint:ignore atomicrename deliberately fabricates and corrupts on-disk checkpoint bytes to test that recovery rejects them; durability ordering is the property under attack, not in use
func TestShardDecodeRejectsVersionSkew(t *testing.T) {
	dir := t.TempDir()
	m := writeCheckpoint(t, osWriter(dir), 2)
	path := filepath.Join(dir, m.Shards[0].File)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Bump the preamble version and fix up the trailer CRC so ONLY the
	// version disagrees — skew must be rejected on its own, not via the
	// checksum.
	blob[4] = 2
	sum := crcOver(blob[:len(blob)-4])
	blob[len(blob)-4] = byte(sum)
	blob[len(blob)-3] = byte(sum >> 8)
	blob[len(blob)-2] = byte(sum >> 16)
	blob[len(blob)-1] = byte(sum >> 24)
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	dst := make([]complex128, m.Shards[0].Amps)
	err = osWriter(dir).StreamShard(m, 0, kernels.AmpBytes(dst), nil)
	if err == nil || !errors.Is(err, ErrInvalid) || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version-skewed shard not rejected as such: %v", err)
	}
}

//qlint:ignore atomicrename deliberately fabricates and corrupts on-disk checkpoint bytes to test that recovery rejects them; durability ordering is the property under attack, not in use
func TestManifestDecodeRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	m := writeCheckpoint(t, osWriter(dir), 5)
	path := filepath.Join(dir, fmt.Sprintf("manifest-%06d.json", m.NextStage))
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func() []byte
	}{
		{"bit flip", func() []byte { b := append([]byte{}, pristine...); b[len(b)/3] ^= 0x04; return b }},
		{"truncated", func() []byte { return pristine[:len(pristine)/2] }},
		{"empty", func() []byte { return nil }},
		{"version skew", func() []byte {
			return []byte(strings.Replace(string(pristine), `"version": 1`, `"version": 99`, 1))
		}},
		{"not json", func() []byte { return []byte("hello\n") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(path, tc.mutate(), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := osWriter(dir).loadManifest(path); err == nil {
				t.Fatal("corrupt manifest loaded without error")
			} else if !errors.Is(err, ErrInvalid) {
				t.Fatalf("corruption error does not wrap ErrInvalid: %v", err)
			}
			if got, err := FindRestorable(dir, testMeta(0)); err != nil || got != nil {
				t.Fatalf("corrupt manifest reported restorable: %v, %v", got, err)
			}
		})
	}
	if err := os.WriteFile(path, pristine, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := osWriter(dir).loadManifest(path); err != nil {
		t.Fatalf("pristine manifest rejected: %v", err)
	}
}

//qlint:ignore atomicrename deliberately fabricates and corrupts on-disk checkpoint bytes to test that recovery rejects them; durability ordering is the property under attack, not in use
func TestManifestRejectsTamperedFields(t *testing.T) {
	// Field edits that keep valid JSON must still fail the manifest CRC.
	dir := t.TempDir()
	m := writeCheckpoint(t, osWriter(dir), 5)
	path := filepath.Join(dir, fmt.Sprintf("manifest-%06d.json", m.NextStage))
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(pristine), `"next_stage": 5`, `"next_stage": 7`, 1)
	if tampered == string(pristine) {
		t.Fatal("tamper target not found in manifest JSON")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := osWriter(dir).loadManifest(path); err == nil || !errors.Is(err, ErrInvalid) {
		t.Fatalf("tampered manifest accepted: %v", err)
	}
}

func crcOver(b []byte) uint32 {
	return crc32.Checksum(b, kernels.Castagnoli)
}
