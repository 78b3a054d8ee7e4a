// Package ckpt implements crash-consistent, resumable snapshots of a
// simulation run — the checkpoint/restart layer a 0.5 PB, multi-hour run on
// thousands of nodes (Häner & Steiger, SC'17, Sec. 4) cannot realistically
// do without. A checkpoint is a set of per-rank shards (CRC32C-checksummed
// amplitude payloads with a self-describing header) plus a JSON manifest
// recording the plan fingerprint, the world geometry, and the stage cursor
// into the scheduled plan.
//
// Crash consistency comes from ordering, not locking:
//
//  1. every rank writes its shard to a temporary file, fsyncs, and
//     atomically renames it into place;
//  2. only after all shards are durable does the coordinator write the
//     manifest — again temp → fsync → rename.
//
// The manifest rename is the commit point. A crash at any earlier moment
// leaves either the previous checkpoint intact or orphaned shard/temp files
// that recovery ignores and the next commit prunes. Recovery walks the
// manifests newest-first and restores the first one whose manifest CRC,
// plan fingerprint, geometry, and every shard checksum all verify — a
// truncated, bit-flipped, or version-skewed snapshot is rejected, never
// loaded.
//
// The same shard format serves all three state backends: statevec (one
// shard covering the full vector), dist (one shard per rank), and oocvec
// (shards written and restored through a chunk stream so the full state is
// never held in memory). The payload is little-endian float64 pairs: on a
// little-endian host the amplitudes' own memory, written and read in place.
package ckpt

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"qusim/internal/fsio"
	"qusim/internal/kernels"
)

// Version is the on-disk format version. Readers reject any other value.
const Version = 1

// shardMagic opens every shard file.
const shardMagic = "QCK1"

// castagnoli is the CRC32C polynomial table (hardware-accelerated on
// amd64/arm64 — the "xxhash/CRC32C" class of checksum the shard format
// needs for GB/s-range verification).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrInvalid wraps every rejection of an on-disk snapshot: bad magic,
// version skew, truncation, checksum mismatch, or metadata that does not
// match the run being resumed. Recovery treats ErrInvalid as "skip this
// snapshot", never as "load it anyway".
var ErrInvalid = errors.New("ckpt: invalid snapshot")

// Meta identifies the run a checkpoint belongs to and where in the plan it
// was taken. Everything is verified on restore.
type Meta struct {
	// PlanHash is schedule.Plan.Fingerprint() — covers the circuit, the
	// schedule, and the qubit layout/permutation maps.
	PlanHash string `json:"plan_hash"`
	N        int    `json:"n"`     // total qubits
	L        int    `json:"l"`     // local qubits per rank (or chunk)
	Ranks    int    `json:"ranks"` // shards per checkpoint
	// NextStage is the stage cursor: the first plan stage NOT yet executed
	// when the snapshot was taken. Resume re-executes ops with
	// Stage >= NextStage and nothing else.
	NextStage int `json:"next_stage"`
}

// matches reports whether two Metas describe the same run (the stage cursor
// is where they may differ).
func (m Meta) matches(o Meta) bool {
	return m.PlanHash == o.PlanHash && m.N == o.N && m.L == o.L && m.Ranks == o.Ranks
}

// ShardInfo is one rank's entry in a manifest.
type ShardInfo struct {
	Rank     int    `json:"rank"`
	File     string `json:"file"` // basename within the checkpoint dir
	Amps     int    `json:"amps"` // amplitudes in the payload
	Checksum uint32 `json:"crc32c"`
}

// Manifest is the commit record of one checkpoint.
type Manifest struct {
	Version int `json:"version"`
	Meta
	Shards []ShardInfo `json:"shards"`
	// CRC is CRC32C over the manifest's canonical JSON with this field
	// zeroed — a bit flip anywhere in the manifest is detected before any
	// shard is even opened.
	CRC uint32 `json:"manifest_crc32c"`
}

// Policy configures periodic checkpointing for an engine run.
type Policy struct {
	// Dir is the checkpoint directory (created if missing).
	Dir string
	// EveryStages checkpoints after every k completed plan stages
	// (default 1: every stage boundary).
	EveryStages int
	// Keep retains the newest k committed checkpoints, pruning older ones
	// after each commit (default 2 — the previous snapshot survives until
	// the next one is fully committed).
	Keep int
}

// MaxRestarts bounds the recovery attempts of a checkpointed run before the
// engine gives up and surfaces the failure.
const MaxRestarts = 8

// Due reports whether a run of a plan of stages stages, started or resumed
// at the boundary before stage start, snapshots the boundary before stage
// next: every EveryStages-th boundary past start, and never the end of the
// final stage, which leaves nothing to resume into. A nil policy snapshots
// nothing. Every engine asks this one rule, so the paged and the
// distributed run of one plan commit the same boundaries.
func (p *Policy) Due(next, start, stages int) bool {
	return p != nil && next > start && next < stages && next%max(p.EveryStages, 1) == 0
}

// KeepN returns the retention count with the default applied.
func (p *Policy) KeepN() int {
	if p.Keep < 1 {
		return 2
	}
	return p.Keep
}

// commitTemp is the single commit point of the durability protocol: it
// atomically renames an already-fsynced temp file to its final name
// inside dir, then fsyncs the directory so the rename itself survives
// power loss. Every file that becomes part of a checkpoint — shard or
// manifest — must go through here (enforced by qlint's atomicrename
// analyzer); the temp file is removed if the rename fails.
//
//qusim:commit-helper
func commitTemp(dir, tmp, final string) error {
	if err := fsys().Rename(tmp, filepath.Join(dir, final)); err != nil {
		fsys().Remove(tmp)
		return err
	}
	syncDir(dir)
	return nil
}

func shardName(stage, rank int) string {
	return fmt.Sprintf("shard-%06d-r%04d.ckpt", stage, rank)
}

func manifestName(stage int) string {
	return fmt.Sprintf("manifest-%06d.json", stage)
}

// shardHeader is the JSON header embedded in every shard file.
type shardHeader struct {
	Version int `json:"version"`
	Meta
	Rank int `json:"rank"`
	Amps int `json:"amps"`
}

const ampBytes = 16

// pieceAmps is the payload of one write + checksum (or read + checksum)
// step: 1 MiB, which the second pass still finds in cache.
const pieceAmps = 1 << 16

// maxHeaderLen bounds the header-length field so a corrupt shard cannot
// make a reader allocate unbounded memory.
const maxHeaderLen = 1 << 20

// ShardWriter streams one rank's amplitudes into a shard file. The file
// becomes visible under its final name only on Close, after an fsync — a
// crash mid-write leaves a temp file recovery ignores.
type ShardWriter struct {
	f      fsio.File
	off    int64  // bytes landed so far; every write is positional
	crc    uint32 // over those bytes
	dir    string
	final  string
	want   int // amplitudes promised at creation
	got    int // amplitudes written so far
	closed bool
	t0     time.Time // creation time, for write-throughput telemetry
}

// NewShardWriter creates the temp file and writes the header. amps is the
// total payload length Close will demand.
func NewShardWriter(dir string, meta Meta, rank, amps int) (*ShardWriter, error) {
	if rank < 0 || rank >= meta.Ranks {
		return nil, fmt.Errorf("ckpt: shard rank %d out of range for %d ranks", rank, meta.Ranks)
	}
	if err := fsys().MkdirAll(dir); err != nil {
		return nil, err
	}
	final := shardName(meta.NextStage, rank)
	var f fsio.File
	err := retryNoSpace(dir, func() (err error) { f, err = fsys().CreateTemp(dir, ".tmp-"+final+"-*"); return err })
	if err != nil {
		return nil, err
	}
	sw := &ShardWriter{f: f, dir: dir, final: final, want: amps, t0: time.Now()}
	hdr, err := json.Marshal(shardHeader{Version: Version, Meta: meta, Rank: rank, Amps: amps})
	if err != nil {
		sw.Abort()
		return nil, err
	}
	pre := make([]byte, 12, 12+len(hdr))
	copy(pre[:4], shardMagic)
	binary.LittleEndian.PutUint32(pre[4:8], Version)
	binary.LittleEndian.PutUint32(pre[8:12], uint32(len(hdr)))
	if err := retryNoSpace(dir, func() error { return sw.write(append(pre, hdr...)) }); err != nil {
		sw.Abort()
		return nil, err
	}
	return sw, nil
}

// write lands b at the writer's offset, which moves only with success.
func (sw *ShardWriter) write(b []byte) error {
	if _, err := sw.f.WriteAt(b, sw.off); err != nil {
		return err
	}
	sw.off += int64(len(b))
	sw.crc = crc32.Update(sw.crc, castagnoli, b)
	return nil
}

// Write appends amplitudes to the payload, a piece at a time; a piece the
// disk had no room for is written once more after pruning. On an error
// nothing of amps counts as written, so the call can be repeated.
func (sw *ShardWriter) Write(amps []complex128) error {
	if sw.got+len(amps) > sw.want {
		return fmt.Errorf("ckpt: shard overflows declared payload (%d > %d amps)", sw.got+len(amps), sw.want)
	}
	off, crc := sw.off, sw.crc
	for rest := amps; len(rest) > 0; {
		piece := rest[:min(len(rest), pieceAmps)]
		b := kernels.AmpBytes(piece)
		if !littleEndian {
			b = putAmps(piece)
		}
		if err := retryNoSpace(sw.dir, func() error { return sw.write(b) }); err != nil {
			sw.off, sw.crc = off, crc
			return err
		}
		rest = rest[len(piece):]
	}
	sw.got += len(amps)
	return nil
}

// Close finalizes the shard: CRC trailer, fsync, atomic rename. It
// fails (and removes the temp file) if fewer amplitudes were written than
// promised.
func (sw *ShardWriter) Close() (ShardInfo, error) {
	if sw.closed {
		return ShardInfo{}, fmt.Errorf("ckpt: shard writer already closed")
	}
	if sw.got != sw.want {
		err := fmt.Errorf("ckpt: shard has %d of %d declared amps", sw.got, sw.want)
		sw.Abort()
		return ShardInfo{}, err
	}
	sum := sw.crc
	var tr [4]byte
	binary.LittleEndian.PutUint32(tr[:], sum)
	if _, err := sw.f.WriteAt(tr[:], sw.off); err != nil {
		sw.Abort()
		return ShardInfo{}, err
	}
	if err := sw.f.Sync(); err != nil {
		sw.Abort()
		return ShardInfo{}, err
	}
	tmp := sw.f.Name()
	if err := sw.f.Close(); err != nil {
		fsys().Remove(tmp)
		sw.closed = true
		return ShardInfo{}, err
	}
	sw.closed = true
	if err := commitTemp(sw.dir, tmp, sw.final); err != nil {
		return ShardInfo{}, err
	}
	telWriteDone(sw.t0, sw.want)
	return ShardInfo{Rank: rankFromName(sw.final), File: sw.final, Amps: sw.want, Checksum: sum}, nil
}

// Abort discards the temp file. Safe to call after a failed Close.
func (sw *ShardWriter) Abort() {
	if sw.closed {
		return
	}
	sw.closed = true
	name := sw.f.Name()
	sw.f.Close()
	fsys().Remove(name)
}

func rankFromName(name string) int {
	var stage, rank int
	if _, err := fmt.Sscanf(name, "shard-%06d-r%04d.ckpt", &stage, &rank); err != nil {
		return -1
	}
	return rank
}

// WriteShard writes a full in-memory amplitude slice as one shard.
func WriteShard(dir string, meta Meta, rank int, amps []complex128) (ShardInfo, error) {
	sw, err := NewShardWriter(dir, meta, rank, len(amps))
	if err != nil {
		return ShardInfo{}, err
	}
	if err := sw.Write(amps); err != nil {
		sw.Abort()
		return ShardInfo{}, err
	}
	return sw.Close()
}

// ShardReader streams a shard's payload back out, verifying the trailer
// CRC (and the manifest's recorded checksum) on Close. The header is
// validated against the manifest before any payload is handed out.
type ShardReader struct {
	f    fsio.File
	br   *bufio.Reader
	crc  uint32
	info ShardInfo
	left int       // amplitudes not yet read
	t0   time.Time // open time, for read-throughput telemetry
}

// OpenShard opens rank's shard of the manifest's checkpoint and validates
// magic, version, and header metadata. All failures wrap ErrInvalid.
func OpenShard(dir string, m *Manifest, rank int) (*ShardReader, error) {
	if rank < 0 || rank >= len(m.Shards) {
		return nil, fmt.Errorf("%w: no shard for rank %d", ErrInvalid, rank)
	}
	info := m.Shards[rank]
	f, err := fsys().Open(filepath.Join(dir, info.File))
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalid, err)
	}
	// A read of the buffer's size or more bypasses it: payload lands in place.
	sr := &ShardReader{
		f: f, br: bufio.NewReaderSize(f, 1<<16),
		info: info, left: info.Amps, t0: time.Now(),
	}
	var pre [12]byte
	if err := sr.read(pre[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: shard preamble: %w", ErrInvalid, err)
	}
	if string(pre[:4]) != shardMagic {
		f.Close()
		return nil, fmt.Errorf("%w: bad shard magic %q", ErrInvalid, pre[:4])
	}
	if v := binary.LittleEndian.Uint32(pre[4:8]); v != Version {
		f.Close()
		return nil, fmt.Errorf("%w: shard version %d, want %d", ErrInvalid, v, Version)
	}
	hlen := binary.LittleEndian.Uint32(pre[8:12])
	if hlen == 0 || hlen > maxHeaderLen {
		f.Close()
		return nil, fmt.Errorf("%w: implausible shard header length %d", ErrInvalid, hlen)
	}
	hdrBytes := make([]byte, hlen)
	if err := sr.read(hdrBytes); err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: shard header: %w", ErrInvalid, err)
	}
	var hdr shardHeader
	if err := json.Unmarshal(hdrBytes, &hdr); err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: shard header: %w", ErrInvalid, err)
	}
	switch {
	case hdr.Version != Version:
		err = fmt.Errorf("%w: shard header version %d, want %d", ErrInvalid, hdr.Version, Version)
	case !hdr.Meta.matches(m.Meta) || hdr.NextStage != m.NextStage:
		err = fmt.Errorf("%w: shard metadata does not match manifest", ErrInvalid)
	case hdr.Rank != rank:
		err = fmt.Errorf("%w: shard is for rank %d, want %d", ErrInvalid, hdr.Rank, rank)
	case hdr.Amps != info.Amps:
		err = fmt.Errorf("%w: shard declares %d amps, manifest %d", ErrInvalid, hdr.Amps, info.Amps)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return sr, nil
}

func (sr *ShardReader) read(b []byte) error {
	if _, err := io.ReadFull(sr.br, b); err != nil {
		return err
	}
	sr.crc = crc32.Update(sr.crc, castagnoli, b)
	return nil
}

// Amps returns the payload length in amplitudes.
func (sr *ShardReader) Amps() int { return sr.info.Amps }

// Read fills dst with the next len(dst) payload amplitudes.
func (sr *ShardReader) Read(dst []complex128) error {
	if len(dst) > sr.left {
		return fmt.Errorf("%w: shard payload truncated (%d amps left, %d requested)", ErrInvalid, sr.left, len(dst))
	}
	sr.left -= len(dst)
	for len(dst) > 0 {
		piece := dst[:min(len(dst), pieceAmps)]
		b := kernels.AmpBytes(piece)
		if !littleEndian {
			b = make([]byte, len(b))
		}
		if err := sr.read(b); err != nil {
			return fmt.Errorf("%w: shard payload: %w", ErrInvalid, err)
		}
		if !littleEndian {
			getAmps(piece, b)
		}
		dst = dst[len(piece):]
	}
	return nil
}

// Close verifies the CRC trailer against both the file contents and the
// manifest's recorded checksum. The whole payload must have been consumed.
func (sr *ShardReader) Close() error {
	defer sr.f.Close()
	if sr.left != 0 {
		return fmt.Errorf("%w: %d payload amps unread at close", ErrInvalid, sr.left)
	}
	sum := sr.crc
	var tr [4]byte
	if _, err := io.ReadFull(sr.br, tr[:]); err != nil {
		return fmt.Errorf("%w: shard trailer: %w", ErrInvalid, err)
	}
	stored := binary.LittleEndian.Uint32(tr[:])
	if stored != sum {
		return fmt.Errorf("%w: shard checksum mismatch (stored %08x, computed %08x)", ErrInvalid, stored, sum)
	}
	if sum != sr.info.Checksum {
		return fmt.Errorf("%w: shard checksum %08x does not match manifest %08x", ErrInvalid, sum, sr.info.Checksum)
	}
	if _, err := sr.br.ReadByte(); err == nil {
		return fmt.Errorf("%w: trailing garbage after shard trailer", ErrInvalid)
	}
	telReadDone(sr.t0, sr.info.Amps)
	return nil
}

// ReadShard restores rank's full shard payload into dst (which must have
// exactly the shard's length).
func ReadShard(dir string, m *Manifest, rank int, dst []complex128) error {
	sr, err := OpenShard(dir, m, rank)
	if err != nil {
		return err
	}
	if sr.Amps() != len(dst) {
		sr.f.Close()
		return fmt.Errorf("%w: shard has %d amps, destination %d", ErrInvalid, sr.Amps(), len(dst))
	}
	if err := sr.Read(dst); err != nil {
		sr.f.Close()
		return err
	}
	return sr.Close()
}

// VerifyShard streams rank's shard end to end, checking header, payload
// CRC, and manifest checksum without keeping the data.
func VerifyShard(dir string, m *Manifest, rank int) error {
	sr, err := OpenShard(dir, m, rank)
	if err != nil {
		return err
	}
	scratch := make([]complex128, min(sr.Amps(), pieceAmps))
	for left := sr.Amps(); left > 0; {
		n := min(left, len(scratch))
		if err := sr.Read(scratch[:n]); err != nil {
			sr.f.Close()
			return err
		}
		left -= n
	}
	return sr.Close()
}

// Commit writes the manifest — the checkpoint's commit point — after all
// shards are durable, then prunes checkpoints older than keep. shards must
// be ordered by rank and complete.
func Commit(dir string, meta Meta, shards []ShardInfo, keep int) (*Manifest, error) {
	t0 := time.Now()
	if len(shards) != meta.Ranks {
		return nil, fmt.Errorf("ckpt: commit with %d shards, want %d", len(shards), meta.Ranks)
	}
	for r, s := range shards {
		if s.Rank != r {
			return nil, fmt.Errorf("ckpt: shard %d carries rank %d", r, s.Rank)
		}
	}
	m := &Manifest{Version: Version, Meta: meta, Shards: shards}
	crc, err := manifestCRC(m)
	if err != nil {
		return nil, err
	}
	m.CRC = crc
	blob, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := retryNoSpace(dir, func() error { return writeManifest(dir, manifestName(meta.NextStage), blob) }); err != nil {
		return nil, err
	}
	if keep < 1 {
		keep = 2
	}
	prune(dir, keep)
	// Stray temp files of interrupted writes.
	strays, _ := filepath.Glob(filepath.Join(dir, ".tmp-*"))
	for _, s := range strays {
		removeCounted(s)
	}
	telCommitDone(t0)
	return m, nil
}

// writeManifest lands blob in dir under name: temp file, fsync, commit.
func writeManifest(dir, name string, blob []byte) error {
	f, err := fsys().CreateTemp(dir, ".tmp-manifest-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(append(blob, '\n')); err != nil {
		f.Close()
		fsys().Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys().Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		fsys().Remove(tmp)
		return err
	}
	return commitTemp(dir, tmp, name)
}

// manifestCRC computes the CRC over the canonical JSON with CRC zeroed.
func manifestCRC(m *Manifest) (uint32, error) {
	c := *m
	c.CRC = 0
	c.Shards = append([]ShardInfo(nil), m.Shards...)
	blob, err := json.Marshal(&c)
	if err != nil {
		return 0, err
	}
	return crc32.Checksum(blob, castagnoli), nil
}

// LoadManifest reads and validates one manifest file (CRC, version, field
// sanity). Shards are NOT verified — see VerifyShard / FindRestorable.
func LoadManifest(path string) (*Manifest, error) {
	blob, err := fsys().ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalid, err)
	}
	var m Manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		return nil, fmt.Errorf("%w: manifest: %w", ErrInvalid, err)
	}
	if m.Version != Version {
		return nil, fmt.Errorf("%w: manifest version %d, want %d", ErrInvalid, m.Version, Version)
	}
	crc, err := manifestCRC(&m)
	if err != nil {
		return nil, fmt.Errorf("%w: manifest: %w", ErrInvalid, err)
	}
	if crc != m.CRC {
		return nil, fmt.Errorf("%w: manifest checksum mismatch (stored %08x, computed %08x)", ErrInvalid, m.CRC, crc)
	}
	if m.Ranks < 1 || len(m.Shards) != m.Ranks || m.N < 1 || m.L < 1 || m.L > m.N || m.NextStage < 0 {
		return nil, fmt.Errorf("%w: manifest geometry is inconsistent", ErrInvalid)
	}
	for r, s := range m.Shards {
		if s.Rank != r || s.Amps < 1 || strings.Contains(s.File, "/") || strings.Contains(s.File, "..") {
			return nil, fmt.Errorf("%w: manifest shard entry %d is inconsistent", ErrInvalid, r)
		}
	}
	return &m, nil
}

// FindRestorable walks dir's manifests newest-first (by stage cursor) and
// returns the first checkpoint that fully verifies — manifest CRC, matching
// plan fingerprint and geometry, and every shard checksum. It returns
// (nil, nil) when no restorable checkpoint exists; the caller restarts from
// scratch. want.NextStage is ignored.
func FindRestorable(dir string, want Meta) (*Manifest, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "manifest-*.json"))
	if err != nil || len(paths) == 0 {
		return nil, nil
	}
	type cand struct {
		path string
		m    *Manifest
	}
	var cands []cand
	for _, p := range paths {
		m, err := LoadManifest(p)
		if err != nil || !m.Meta.matches(want) {
			continue
		}
		cands = append(cands, cand{p, m})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].m.NextStage > cands[j].m.NextStage })
	for _, c := range cands {
		ok := true
		for r := 0; r < c.m.Ranks; r++ {
			if err := VerifyShard(dir, c.m, r); err != nil {
				ok = false
				break
			}
		}
		if ok {
			return c.m, nil
		}
	}
	return nil, nil
}

// prune removes all but the newest keep committed checkpoints and returns
// how many it removed. Shards not referenced by a surviving manifest are
// deleted. Removal failures do not stop the sweep; they count in
// ckpt.prune_failures and log once (see removeCounted).
func prune(dir string, keep int) (removed int) {
	paths, _ := filepath.Glob(filepath.Join(dir, "manifest-*.json"))
	type aged struct {
		path  string
		stage int
		m     *Manifest
	}
	var all []aged
	for _, p := range paths {
		m, err := LoadManifest(p)
		if err != nil {
			// Unreadable manifest: not restorable, reclaim it.
			removeCounted(p)
			continue
		}
		all = append(all, aged{p, m.NextStage, m})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].stage > all[j].stage })
	kept := map[string]bool{}
	for i, a := range all {
		if i < keep {
			for _, s := range a.m.Shards {
				kept[s.File] = true
			}
			continue
		}
		// Manifest first: once it is gone the checkpoint is uncommitted and
		// its shards are garbage even if deletion is interrupted here.
		if !removeCounted(a.path) {
			// The manifest survived, so the checkpoint is still committed:
			// keep its shards, deleting them would corrupt it.
			for _, s := range a.m.Shards {
				kept[s.File] = true
			}
			continue
		}
		removed++
		for _, s := range a.m.Shards {
			if !kept[s.File] {
				removeCounted(filepath.Join(dir, s.File))
			}
		}
	}
	return removed
}

// syncDir fsyncs a directory so a just-committed rename survives power
// loss. Best-effort: some platforms/filesystems reject directory fsync.
func syncDir(dir string) {
	fsys().SyncDir(dir)
}

// littleEndian says that amplitude memory already is the shard encoding and
// nothing is converted (or allocated: only a big-endian host pays for a
// buffer per piece). A variable so that a test can force the other branch.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// putAmps returns the little-endian encoding of amps.
//
//qusim:hot
func putAmps(amps []complex128) []byte {
	b := make([]byte, ampBytes*len(amps))
	for i, a := range amps {
		binary.LittleEndian.PutUint64(b[16*i:], math.Float64bits(real(a)))
		binary.LittleEndian.PutUint64(b[16*i+8:], math.Float64bits(imag(a)))
	}
	return b
}

// getAmps decodes amplitudes from b into amps.
//
//qusim:hot
func getAmps(amps []complex128, b []byte) {
	for i := range amps {
		re := math.Float64frombits(binary.LittleEndian.Uint64(b[16*i:]))
		im := math.Float64frombits(binary.LittleEndian.Uint64(b[16*i+8:]))
		amps[i] = complex(re, im)
	}
}
