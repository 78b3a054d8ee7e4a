package ckpt

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"qusim/internal/fsio"
	"qusim/internal/kernels"
)

// TestViewAndPortableShardsIdentical: a shard written from amplitude memory
// holds byte for byte the per-element little-endian encoding of its
// amplitudes — 8-byte words for complex128, 4-byte ones for complex64, whose
// Meta records the width — under a trailer that is the CRC32C of everything
// before it, and reads back to the amplitudes, at lengths around the piece
// size, where the writer splits its work. (kernels' TestWireViewAndEncodingAgree
// forces the encoding branch a big-endian host takes, at both word sizes.)
func TestViewAndPortableShardsIdentical(t *testing.T) {
	portableShards(t, 0, func(b []byte, a complex128) []byte {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(real(a)))
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(imag(a)))
	})
	t.Run("complex64", func(t *testing.T) {
		portableShards(t, 8, func(b []byte, a complex64) []byte {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(real(a)))
			return binary.LittleEndian.AppendUint32(b, math.Float32bits(imag(a)))
		})
	})
}

// portableShards runs TestViewAndPortableShardsIdentical at one precision:
// ampBytes is Meta.AmpBytes, and put appends an amplitude's encoding.
func portableShards[T complex64 | complex128](t *testing.T, ampBytes int, put func([]byte, T) []byte) {
	meta := Meta{PlanHash: "endian", N: 20, L: 20, Ranks: 1, AmpBytes: ampBytes, NextStage: 1}
	per := pieceBytes / meta.width()
	for _, n := range []int{0, 1, 7, per - 1, per, per + 1, 2*per + 3} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			amps, want := make([]T, n), []byte(nil)
			for i, a := range testAmps(n, n) {
				amps[i] = T(a)
				want = put(want, amps[i])
			}
			dir := t.TempDir()
			sw, err := osWriter(dir).newShardWriter(meta, 0, n)
			if err != nil {
				t.Fatal(err)
			}
			// Two calls, so a piece boundary also falls inside a call.
			if err := sw.Write(kernels.AmpBytes(amps[:n/3])); err != nil {
				t.Fatal(err)
			}
			if err := sw.Write(kernels.AmpBytes(amps[n/3:])); err != nil {
				t.Fatal(err)
			}
			info, err := sw.Close()
			if err != nil {
				t.Fatal(err)
			}
			blob, err := os.ReadFile(filepath.Join(dir, info.File))
			if err != nil {
				t.Fatal(err)
			}
			body, trailer := blob[:len(blob)-4], blob[len(blob)-4:]
			if !bytes.HasSuffix(body, want) {
				t.Fatalf("shard payload is not the per-element encoding of its %d amplitudes", n)
			}
			if got := binary.LittleEndian.Uint32(trailer); got != crcOver(body) {
				t.Fatalf("trailer %08x, CRC32C of the shard before it %08x", got, crcOver(body))
			}

			got := make([]T, n)
			man := &Manifest{Version: Version, Meta: meta, Shards: []ShardInfo{info}}
			if err := osWriter(dir).StreamShard(man, 0, kernels.AmpBytes(got), nil); err != nil {
				t.Fatal(err)
			}
			for i := range amps {
				if got[i] != amps[i] {
					t.Fatalf("amplitude %d = %v, want %v", i, got[i], amps[i])
				}
			}
		})
	}
}

// failNthWriteFS fails the n-th positional write of every file it creates
// with ENOSPC, after landing half of it — what a disk that fills up does.
type failNthWriteFS struct {
	fsio.OS
	n int
}

func (fs *failNthWriteFS) CreateTemp(dir, pattern string) (fsio.File, error) {
	f, err := fs.OS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &failNthWriteFile{File: f, left: fs.n}, nil
}

type failNthWriteFile struct {
	fsio.File
	left int
}

func (f *failNthWriteFile) WriteAt(p []byte, off int64) (int, error) {
	if f.left--; f.left == 0 {
		n, _ := f.File.WriteAt(p[:len(p)/2], off)
		return n, fmt.Errorf("injected: %w", fsio.ErrNoSpace)
	}
	return f.File.WriteAt(p, off)
}

// TestShardWriteRepeatableAfterFailure: a Write that failed part-way —
// pieces before the failing one landed, half of the failing one too — counts
// for nothing, so the same call issued again (what Write itself does after
// pruning on ENOSPC) yields the shard a clean run writes.
func TestShardWriteRepeatableAfterFailure(t *testing.T) {
	const n = 3*pieceAmps + 5
	amps := testAmps(3, n)
	meta := Meta{PlanHash: "retry", N: 20, L: 20, Ranks: 1, NextStage: 2}
	write := func(w *Writer, wantFailure bool) []byte {
		sw, err := w.newShardWriter(meta, 0, n)
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.Write(kernels.AmpBytes(amps[:pieceAmps])); err != nil {
			t.Fatal(err)
		}
		err = sw.Write(kernels.AmpBytes(amps[pieceAmps:]))
		if wantFailure {
			if !fsio.IsNoSpace(err) {
				t.Fatalf("injected ENOSPC came back as %v", err)
			}
			err = sw.Write(kernels.AmpBytes(amps[pieceAmps:]))
		}
		if err != nil {
			t.Fatal(err)
		}
		info, err := sw.Close()
		if err != nil {
			t.Fatal(err)
		}
		blob, err := os.ReadFile(filepath.Join(w.pol.Dir, info.File))
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	clean := write(osWriter(t.TempDir()), false)
	// Writes of the file: header, piece 0, then the second call's pieces —
	// the 4th lands the second of those by half.
	failing := NewWriter(&Policy{Dir: t.TempDir(), FS: &failNthWriteFS{n: 4}}, meta, nil)
	if retried := write(failing, true); !bytes.Equal(clean, retried) {
		t.Fatal("shard written across a failed and repeated Write differs from a clean one")
	}
}

// goldenShard is a four-amplitude shard as the per-element encoder behind a
// 64 KiB bufio.Writer wrote it before shards were written from amplitude
// memory: the format did not move, so snapshots cross that change in both
// directions.
const goldenShard = "51434b3101000000590000007b2276657273696f6e223a312c22706c616e5f68617368223a22676f6c64656e222c226e223a322c" +
	"226c223a322c2272616e6b73223a312c226e6578745f7374616765223a332c2272616e6b223a302c22616d7073223a347d" +
	"000000000000f03f0000000000000040000000000000e0bf00000000000000000000000000000000" +
	"0000000000000a4059f3f8c21f6ea5010000000000001cc0f314d267"

func TestShardFormatGolden(t *testing.T) {
	want, err := hex.DecodeString(goldenShard)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	meta := Meta{PlanHash: "golden", N: 2, L: 2, Ranks: 1, NextStage: 3}
	amps := []complex128{1 + 2i, -0.5, 3.25i, complex(1e-300, -7)}
	info, err := writeShard(osWriter(dir), meta, 0, amps)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, info.File))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("shard bytes moved:\n got %x\nwant %x", got, want)
	}
	back := make([]complex128, len(amps))
	if err := osWriter(dir).StreamShard(&Manifest{Version: Version, Meta: meta, Shards: []ShardInfo{info}}, 0, kernels.AmpBytes(back), nil); err != nil {
		t.Fatal(err)
	}
	for i := range amps {
		if back[i] != amps[i] {
			t.Fatalf("amplitude %d read back as %v, want %v", i, back[i], amps[i])
		}
	}
}
