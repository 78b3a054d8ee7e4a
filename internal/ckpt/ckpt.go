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
// One writer, Snapshot, serves both engines that checkpoint: dist tees one
// shard per rank, oocvec one shard covering the whole state, chunk by chunk
// from its reader, so the full state is never held in memory. The payload
// is the amplitudes' wire encoding, kernels.ToWire, at the width Meta
// records: on a little-endian host their own memory, written and read in place.
package ckpt

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"qusim/internal/fsio"
	"qusim/internal/kernels"
	"qusim/internal/telemetry"
)

// Version is the on-disk format version. Readers reject any other value.
const Version = 1

// shardMagic opens every shard file.
const shardMagic = "QCK1"

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
	// AmpBytes is the payload's bytes per amplitude: 8 for complex64, and 0
	// for complex128's 16, so that f64 snapshots keep their bytes.
	AmpBytes int `json:"amp_bytes,omitempty"`
	// NextStage is the stage cursor: the first plan stage NOT yet executed
	// when the snapshot was taken. Resume re-executes ops with
	// Stage >= NextStage and nothing else.
	NextStage int `json:"next_stage"`
}

// matches reports whether two Metas describe the same run (the stage cursor
// is where they may differ; the amplitude width may not).
func (m Meta) matches(o Meta) bool {
	return m.PlanHash == o.PlanHash && m.N == o.N && m.L == o.L && m.Ranks == o.Ranks && m.width() == o.width()
}

// width returns the bytes of one payload amplitude.
func (m Meta) width() int { return cmp.Or(m.AmpBytes, 16) }

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
	// FS is the file system the run's checkpoint I/O goes through (nil:
	// fsio.OS), the seam the chaos layer degrades it through.
	FS fsio.FS
}

// MaxRestarts bounds the recovery attempts of a checkpointed run before the
// engine gives up and surfaces the failure.
const MaxRestarts = 8

// Restart is the one recovery loop of a checkpointed run of the plan meta
// identifies. It runs attempt with a writer of its own (a failed attempt's
// snapshots are aborted, not carried on) and, when resume is set, the newest
// restorable snapshot (nil if none is); then, at once after each failure one
// of the back end's recoverable classes names, again, resuming, up to
// MaxRestarts times — failed is that failure, nil the first time. A nil
// policy runs attempt once, with a nil writer. It returns the restarts made
// and the last error, wrapped when the bound gave up, still in its class.
func (p *Policy) Restart(meta Meta, tel *telemetry.Telemetry, resume bool, attempt func(w *Writer, man *Manifest, failed error) error, recoverable ...func(error) bool) (restarts int, err error) {
	for failed := error(nil); ; restarts++ {
		w, man := NewWriter(p, meta, tel), (*Manifest)(nil)
		if w != nil && (resume || failed != nil) {
			man = w.FindRestorable()
		}
		err = attempt(w, man, failed)
		if err == nil || p == nil || !slices.ContainsFunc(recoverable, func(is func(error) bool) bool { return is(err) }) {
			return restarts, err
		}
		if restarts == MaxRestarts {
			return restarts, fmt.Errorf("ckpt: giving up after %d restarts: %w", restarts, err)
		}
		failed = err
	}
}

// Due reports whether a run of a plan of stages stages, started or resumed
// at the boundary before stage start, snapshots the boundary before stage
// next: every EveryStages-th boundary past start, and never the end of the
// final stage, which leaves nothing to resume into. A nil policy snapshots
// nothing. Every engine asks this one rule, so the paged and the
// distributed run of one plan commit the same boundaries.
func (p *Policy) Due(next, start, stages int) bool {
	return p != nil && next > start && next < stages && next%max(p.EveryStages, 1) == 0
}

// commitTemp is the single commit point of the durability protocol: it
// atomically renames an already-fsynced temp file to its final name in the
// checkpoint directory, then fsyncs the directory so the rename itself
// survives power loss. Every file that becomes part of a checkpoint — shard
// or manifest — must go through here (enforced by qlint's atomicrename
// analyzer); the temp file is removed if the rename fails.
//
//qusim:commit-helper
func (w *Writer) commitTemp(tmp, final string) error {
	if err := w.fs.Rename(tmp, filepath.Join(w.pol.Dir, final)); err != nil {
		w.fs.Remove(tmp)
		return err
	}
	w.fs.SyncDir(w.pol.Dir) // best-effort: some filesystems reject a directory fsync
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

// pieceBytes is the payload of one write + checksum (or read + checksum)
// step: 1 MiB, which the second pass still finds in cache.
const pieceBytes = 1 << 20

// maxHeaderLen bounds the header-length field so a corrupt shard cannot
// make a reader allocate unbounded memory.
const maxHeaderLen = 1 << 20

// shardWriter streams one rank's amplitudes into a shard file. The file
// becomes visible under its final name only on Close, after an fsync — a
// crash mid-write leaves a temp file recovery ignores.
type shardWriter struct {
	f      fsio.File
	off    int64  // bytes landed so far; every write is positional
	hinted int64  // bytes handed to writeback so far, whole pages
	crc    uint32 // over those bytes
	w      *Writer
	final  string
	rank   int
	width  int // bytes of one amplitude
	want   int // payload bytes promised at creation
	got    int // payload bytes written so far
	closed bool
	t0     time.Time // creation time, for write-throughput telemetry
}

// newShardWriter creates the temp file and writes the header. amps is the
// total payload length Close will demand.
func (w *Writer) newShardWriter(meta Meta, rank, amps int) (*shardWriter, error) {
	if rank < 0 || rank >= meta.Ranks {
		return nil, fmt.Errorf("ckpt: shard rank %d out of range for %d ranks", rank, meta.Ranks)
	}
	if err := w.MkdirAll(); err != nil {
		return nil, err
	}
	final := shardName(meta.NextStage, rank)
	var f fsio.File
	err := w.retryNoSpace(func() (err error) { f, err = w.fs.CreateTemp(w.pol.Dir, ".tmp-"+final+"-*"); return err })
	if err != nil {
		return nil, err
	}
	sw := &shardWriter{f: f, w: w, final: final, rank: rank, width: meta.width(), want: amps * meta.width(), t0: time.Now()}
	hdr, err := json.Marshal(shardHeader{Version: Version, Meta: meta, Rank: rank, Amps: amps})
	if err != nil {
		sw.Abort()
		return nil, err
	}
	pre := make([]byte, 12, 12+len(hdr))
	copy(pre[:4], shardMagic)
	binary.LittleEndian.PutUint32(pre[4:8], Version)
	binary.LittleEndian.PutUint32(pre[8:12], uint32(len(hdr)))
	if err := w.retryNoSpace(func() error { return sw.write(append(pre, hdr...)) }); err != nil {
		sw.Abort()
		return nil, err
	}
	return sw, nil
}

// write lands b at the writer's offset, which moves only with success, and
// starts the writeback (fsio.StartWriteback) of the whole pages landed
// since the last hint, so that the fsync of Close waits for the last
// pieces only. The page the next write still fills is left to a later hint
// or to Close, so that no page is sent to the disk twice.
func (sw *shardWriter) write(b []byte) error {
	if _, err := sw.f.WriteAt(b, sw.off); err != nil {
		return err
	}
	sw.off += int64(len(b))
	sw.crc = crc32.Update(sw.crc, kernels.Castagnoli, b)
	if end := sw.off &^ (pageBytes - 1); end > sw.hinted {
		fsio.StartWriteback(sw.f, sw.hinted, end-sw.hinted)
		sw.hinted = end
	}
	return nil
}

// pageBytes is the unit of writeback, the OS's page.
var pageBytes = int64(os.Getpagesize())

// Write appends raw, the memory of amplitudes (kernels.AmpBytes) of the
// shard's width, to the payload, a piece at a time; a piece the disk had no
// room for is written once more after pruning. On an error nothing of raw
// counts as written, so the call can be repeated.
func (sw *shardWriter) Write(raw []byte) error {
	if sw.got+len(raw) > sw.want {
		return fmt.Errorf("ckpt: shard overflows declared payload (%d > %d bytes)", sw.got+len(raw), sw.want)
	}
	off, crc := sw.off, sw.crc
	for rest := raw; len(rest) > 0; {
		piece := rest[:min(len(rest), pieceBytes)]
		err := kernels.ToWire(piece, sw.width/2, func(b []byte) error {
			return sw.w.retryNoSpace(func() error { return sw.write(b) })
		})
		if err != nil {
			sw.off, sw.crc = off, crc
			return err
		}
		rest = rest[len(piece):]
	}
	sw.got += len(raw)
	return nil
}

// Close finalizes the shard: CRC trailer, fsync, atomic rename. It
// fails (and removes the temp file) if fewer amplitudes were written than
// promised.
func (sw *shardWriter) Close() (ShardInfo, error) {
	if sw.closed {
		return ShardInfo{}, fmt.Errorf("ckpt: shard writer already closed")
	}
	if sw.got != sw.want {
		err := fmt.Errorf("ckpt: shard has %d of %d declared payload bytes", sw.got, sw.want)
		sw.Abort()
		return ShardInfo{}, err
	}
	sum := sw.crc
	var tr [4]byte
	binary.LittleEndian.PutUint32(tr[:], sum)
	_, err := sw.f.WriteAt(tr[:], sw.off)
	if err == nil {
		err = sw.f.Sync()
	}
	if err != nil {
		sw.Abort()
		return ShardInfo{}, err
	}
	tmp := sw.f.Name()
	if err := sw.f.Close(); err != nil {
		sw.w.fs.Remove(tmp)
		sw.closed = true
		return ShardInfo{}, err
	}
	sw.closed = true
	if err := sw.w.commitTemp(tmp, sw.final); err != nil {
		return ShardInfo{}, err
	}
	sw.w.telShard("write", sw.t0, sw.want)
	return ShardInfo{Rank: sw.rank, File: sw.final, Amps: sw.want / sw.width, Checksum: sum}, nil
}

// Abort discards the temp file. Safe to call after a failed Close.
func (sw *shardWriter) Abort() {
	if sw.closed {
		return
	}
	sw.closed = true
	name := sw.f.Name()
	sw.f.Close()
	sw.w.fs.Remove(name)
}

// VerifyShard streams rank's shard in dir, on the real file system, end to
// end, checking header, payload CRC, and manifest checksum without keeping
// the data.
func VerifyShard(dir string, m *Manifest, rank int) error {
	return NewWriter(&Policy{Dir: dir}, m.Meta, nil).verifyShard(m, rank)
}

func (w *Writer) verifyShard(m *Manifest, rank int) error {
	return w.StreamShard(m, rank, make([]byte, pieceBytes), func([]byte) error { return nil })
}

// StreamShard reads rank's shard of the manifest's checkpoint through buf,
// the memory of amplitudes (kernels.AmpBytes) of the manifest's width: it
// validates the header against the manifest, then fills buf with the next
// len(buf) payload bytes (fewer at the end) and hands them to each until the
// payload is read — with each nil, buf must hold the whole payload — and
// last checks the CRC trailer against the file and the manifest. Every
// failure of the shard wraps ErrInvalid; each's errors come back as they are.
func (w *Writer) StreamShard(m *Manifest, rank int, buf []byte, each func([]byte) error) error {
	if rank < 0 || rank >= len(m.Shards) {
		return fmt.Errorf("%w: no shard for rank %d", ErrInvalid, rank)
	}
	info, t0 := m.Shards[rank], time.Now()
	f, err := w.fs.Open(filepath.Join(w.pol.Dir, info.File))
	if err != nil {
		return fmt.Errorf("%w: %w", ErrInvalid, err)
	}
	defer f.Close()
	// A read of the buffer's size or more bypasses it: payload lands in place.
	sr := &shardReader{br: bufio.NewReaderSize(f, 1<<16)}
	if err := sr.header(m, rank); err != nil {
		return err
	}
	payload := info.Amps * m.width()
	if each == nil && len(buf) != payload || each != nil && len(buf) == 0 {
		return fmt.Errorf("%w: shard has %d payload bytes, destination %d", ErrInvalid, payload, len(buf))
	}
	for left := payload; left > 0; {
		n := min(left, len(buf))
		if err := sr.payload(buf[:n], m.width()/2); err != nil {
			return fmt.Errorf("%w: shard payload: %w", ErrInvalid, err)
		}
		if each != nil {
			if err := each(buf[:n]); err != nil {
				return err
			}
		}
		left -= n
	}
	if err := sr.trailer(info.Checksum); err != nil {
		return err
	}
	w.telShard("read", t0, payload)
	return nil
}

// shardReader reads a shard file front to back, checksumming what it reads.
type shardReader struct {
	br  *bufio.Reader
	crc uint32
}

func (sr *shardReader) read(b []byte) error {
	if _, err := io.ReadFull(sr.br, b); err != nil {
		return err
	}
	sr.crc = crc32.Update(sr.crc, kernels.Castagnoli, b)
	return nil
}

// header reads and validates magic, version and the header metadata of
// rank's shard of m.
func (sr *shardReader) header(m *Manifest, rank int) error {
	var pre [12]byte
	if err := sr.read(pre[:]); err != nil {
		return fmt.Errorf("%w: shard preamble: %w", ErrInvalid, err)
	}
	if string(pre[:4]) != shardMagic {
		return fmt.Errorf("%w: bad shard magic %q", ErrInvalid, pre[:4])
	}
	if v := binary.LittleEndian.Uint32(pre[4:8]); v != Version {
		return fmt.Errorf("%w: shard version %d, want %d", ErrInvalid, v, Version)
	}
	hlen := binary.LittleEndian.Uint32(pre[8:12])
	if hlen == 0 || hlen > maxHeaderLen {
		return fmt.Errorf("%w: implausible shard header length %d", ErrInvalid, hlen)
	}
	hdrBytes := make([]byte, hlen)
	if err := sr.read(hdrBytes); err != nil {
		return fmt.Errorf("%w: shard header: %w", ErrInvalid, err)
	}
	var hdr shardHeader
	if err := json.Unmarshal(hdrBytes, &hdr); err != nil {
		return fmt.Errorf("%w: shard header: %w", ErrInvalid, err)
	}
	switch {
	case hdr.Version != Version:
		return fmt.Errorf("%w: shard header version %d, want %d", ErrInvalid, hdr.Version, Version)
	case !hdr.Meta.matches(m.Meta) || hdr.NextStage != m.NextStage:
		return fmt.Errorf("%w: shard metadata does not match manifest", ErrInvalid)
	case hdr.Rank != rank:
		return fmt.Errorf("%w: shard is for rank %d, want %d", ErrInvalid, hdr.Rank, rank)
	case hdr.Amps != m.Shards[rank].Amps:
		return fmt.Errorf("%w: shard declares %d amps, manifest %d", ErrInvalid, hdr.Amps, m.Shards[rank].Amps)
	}
	return nil
}

// payload fills dst, the memory of amplitudes whose parts are word bytes
// wide, with the next len(dst) payload bytes.
func (sr *shardReader) payload(dst []byte, word int) error {
	for len(dst) > 0 {
		piece := dst[:min(len(dst), pieceBytes)]
		if err := kernels.FromWire(piece, word, sr.read); err != nil {
			return err
		}
		dst = dst[len(piece):]
	}
	return nil
}

// trailer checks the CRC trailer against the bytes read and the checksum
// the manifest recorded, and that nothing follows it.
func (sr *shardReader) trailer(recorded uint32) error {
	sum := sr.crc
	var tr [4]byte
	if _, err := io.ReadFull(sr.br, tr[:]); err != nil {
		return fmt.Errorf("%w: shard trailer: %w", ErrInvalid, err)
	}
	if stored := binary.LittleEndian.Uint32(tr[:]); stored != sum {
		return fmt.Errorf("%w: shard checksum mismatch (stored %08x, computed %08x)", ErrInvalid, stored, sum)
	}
	if sum != recorded {
		return fmt.Errorf("%w: shard checksum %08x does not match manifest %08x", ErrInvalid, sum, recorded)
	}
	if _, err := sr.br.ReadByte(); err == nil {
		return fmt.Errorf("%w: trailing garbage after shard trailer", ErrInvalid)
	}
	return nil
}

// commit writes the manifest — the checkpoint's commit point — after all
// shards are durable, then prunes checkpoints older than the policy's Keep.
// shards must be ordered by rank and complete.
func (w *Writer) commit(meta Meta, shards []ShardInfo) (*Manifest, error) {
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
	if err := w.retryNoSpace(func() error { return w.writeManifest(manifestName(meta.NextStage), blob) }); err != nil {
		return nil, err
	}
	keep := w.pol.Keep
	if keep < 1 {
		keep = 2
	}
	w.prune(keep)
	// Stray temp files of interrupted writes.
	strays, _ := filepath.Glob(filepath.Join(w.pol.Dir, ".tmp-*"))
	for _, s := range strays {
		w.removeCounted(s)
	}
	w.tel.Counter("ckpt.commits").Inc()
	w.tel.Histogram("ckpt.commit_ns").ObserveSince(t0)
	return m, nil
}

// writeManifest lands blob in the directory under name: temp file, fsync,
// commit.
func (w *Writer) writeManifest(name string, blob []byte) error {
	f, err := w.fs.CreateTemp(w.pol.Dir, ".tmp-manifest-*")
	if err != nil {
		return err
	}
	_, err = f.Write(append(blob, '\n'))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		w.fs.Remove(f.Name())
		return err
	}
	return w.commitTemp(f.Name(), name)
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
	return crc32.Checksum(blob, kernels.Castagnoli), nil
}

// loadManifest reads and validates one manifest file (CRC, version, field
// sanity). Shards are NOT verified — see VerifyShard / FindRestorable.
func (w *Writer) loadManifest(path string) (*Manifest, error) {
	blob, err := w.fs.ReadFile(path)
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
	if m.Ranks < 1 || len(m.Shards) != m.Ranks || m.N < 1 || m.L < 1 || m.L > m.N || m.NextStage < 0 || m.AmpBytes != 0 && m.AmpBytes != 8 {
		return nil, fmt.Errorf("%w: manifest geometry is inconsistent", ErrInvalid)
	}
	for r, s := range m.Shards {
		if s.Rank != r || s.Amps < 1 || strings.Contains(s.File, "/") || strings.Contains(s.File, "..") {
			return nil, fmt.Errorf("%w: manifest shard entry %d is inconsistent", ErrInvalid, r)
		}
	}
	return &m, nil
}

// FindRestorable is Writer.FindRestorable in dir on the real file system,
// for a run of the plan want identifies (want.NextStage is ignored). The
// error is always nil: the two-result form is what the benchmark module
// compiles against.
func FindRestorable(dir string, want Meta) (*Manifest, error) {
	return NewWriter(&Policy{Dir: dir}, want, nil).FindRestorable(), nil
}

// FindRestorable walks the directory's manifests newest-first (by stage
// cursor) and returns the first checkpoint of the writer's run that fully
// verifies — manifest CRC, matching plan fingerprint and geometry, and every
// shard checksum. A manifest or shard that cannot be read counts as not
// restorable. It returns nil when no restorable checkpoint exists; the
// caller restarts from scratch.
func (w *Writer) FindRestorable() *Manifest {
	valid, _ := w.manifests()
	for _, c := range valid {
		ok := c.m.Meta.matches(w.meta)
		for r := 0; ok && r < c.m.Ranks; r++ {
			ok = w.verifyShard(c.m, r) == nil
		}
		if ok {
			return c.m
		}
	}
	return nil
}

// loaded is a manifest and the file it was loaded from.
type loaded struct {
	path string
	m    *Manifest
}

// manifests loads the directory's manifest files: those that load, newest
// (by stage cursor) first, and the paths of those that do not.
func (w *Writer) manifests() (valid []loaded, invalid []string) {
	paths, _ := filepath.Glob(filepath.Join(w.pol.Dir, "manifest-*.json"))
	for _, p := range paths {
		if m, err := w.loadManifest(p); err == nil {
			valid = append(valid, loaded{p, m})
		} else {
			invalid = append(invalid, p)
		}
	}
	sort.Slice(valid, func(i, j int) bool { return valid[i].m.NextStage > valid[j].m.NextStage })
	return valid, invalid
}

// prune removes all but the newest keep committed checkpoints and returns
// how many it removed. Shards not referenced by a surviving manifest are
// deleted. Removal failures do not stop the sweep; they count in
// ckpt.prune_failures and log once (see removeCounted).
func (w *Writer) prune(keep int) (removed int) {
	all, invalid := w.manifests()
	for _, p := range invalid {
		w.removeCounted(p) // not restorable: reclaim it
	}
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
		if !w.removeCounted(a.path) {
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
				w.removeCounted(filepath.Join(w.pol.Dir, s.File))
			}
		}
	}
	return removed
}
