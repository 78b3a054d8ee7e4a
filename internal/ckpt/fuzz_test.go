package ckpt

import (
	"os"
	"path/filepath"
	"testing"

	"qusim/internal/kernels"
)

// The fuzz targets feed arbitrary bytes to the two snapshot decoders. The
// oracle is simple: the decoders must never panic, and anything that is not
// a faithfully committed snapshot must come back as an error — recovery
// rejects corrupt checkpoints, it never loads them.

// seedShard builds a pristine shard file and its manifest for mutation.
func seedShard(tb testing.TB) (dir string, m *Manifest, blob []byte) {
	tb.Helper()
	dir = tb.TempDir()
	meta := Meta{PlanHash: "fuzz", N: 5, L: 3, Ranks: 1, NextStage: 1}
	amps := make([]complex128, 1<<meta.L)
	for i := range amps {
		amps[i] = complex(float64(i), -float64(i))
	}
	w := osWriter(dir)
	info, err := writeShard(w, meta, 0, amps)
	if err != nil {
		tb.Fatal(err)
	}
	m, err = w.commit(meta, []ShardInfo{info})
	if err != nil {
		tb.Fatal(err)
	}
	blob, err = os.ReadFile(filepath.Join(dir, info.File))
	if err != nil {
		tb.Fatal(err)
	}
	return dir, m, blob
}

//qlint:ignore atomicrename deliberately fabricates and corrupts on-disk checkpoint bytes to test that recovery rejects them; durability ordering is the property under attack, not in use
func FuzzShardDecode(f *testing.F) {
	_, m, blob := seedShard(f)
	f.Add(blob)
	f.Add(blob[:12])
	f.Add([]byte(shardMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, m.Shards[0].File), data, 0o644); err != nil {
			t.Skip()
		}
		dst := make([]complex128, m.Shards[0].Amps)
		err := osWriter(dir).StreamShard(m, 0, kernels.AmpBytes(dst), nil)
		// The only bytes that may decode cleanly are the pristine shard.
		if err == nil && string(data) != string(blob) {
			t.Fatalf("mutated shard (%d bytes) decoded without error", len(data))
		}
	})
}

//qlint:ignore atomicrename deliberately fabricates and corrupts on-disk checkpoint bytes to test that recovery rejects them; durability ordering is the property under attack, not in use
func FuzzManifestDecode(f *testing.F) {
	dir, m, _ := seedShard(f)
	path := filepath.Join(dir, manifestName(m.NextStage))
	pristine, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(pristine)
	f.Add([]byte("{}"))
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := filepath.Join(t.TempDir(), "manifest-000001.json")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Skip()
		}
		got, err := osWriter("").loadManifest(p)
		if err == nil && string(data) != string(pristine) {
			// A different byte stream may still be a semantically identical
			// manifest (whitespace); accept only if it re-verifies.
			crc, cerr := manifestCRC(got)
			if cerr != nil || crc != got.CRC {
				t.Fatalf("mutated manifest decoded without error")
			}
		}
	})
}
