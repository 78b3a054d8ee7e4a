// Package chaos is the deterministic chaos-engineering layer: it composes
// the transport faults of mpi.FaultPlan (crash, corrupt, stall, timing
// perturbations) with a disk-fault injector that degrades the file-ops
// seam (internal/fsio) the durability layers run on — ENOSPC, torn
// writes, transient read errors, slow I/O.
//
// Everything is seeded and op-indexed, never time- or probability-
// triggered: the k-th write op fails, not "writes fail 1% of the time" —
// so a failing soak run replays exactly from its seed. The soak driver
// (cmd/qchaos) draws composed Schedules from Compose, runs the same
// circuit with and without the schedule armed, and demands bitwise
// identical results; internal/dist and internal/oocvec tests use FS
// directly to pin individual degradation policies.
package chaos

import (
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"time"

	"qusim/internal/fsio"
	"qusim/internal/mpi"
)

// Class enumerates the fault classes the layer can inject. The soak
// driver's coverage accounting is keyed on it: a soak that never exercised
// a class proves nothing about that class.
type Class int

const (
	Crash Class = iota
	Corrupt
	Stall
	NoSpace
	TornWrite
	ReadError
	SlowIO

	// NumClasses is the number of distinct fault classes.
	NumClasses
)

var classNames = [NumClasses]string{
	"crash", "corrupt", "stall", "enospc", "torn-write", "read-error", "slow-io",
}

func (c Class) String() string {
	if c < 0 || c >= NumClasses {
		return fmt.Sprintf("Class(%d)", int(c))
	}
	return classNames[c]
}

// DiskFaults schedules deterministic disk faults over the stream of file
// operations flowing through an injecting FS. Operations are counted
// per family from 1; a zero trigger is disarmed.
//
// Write-family ops (in counting order): File.Write, File.WriteAt,
// File.Sync, FS.CreateTemp, FS.Rename. Read-family ops: File.Read,
// File.ReadAt, FS.Open, FS.ReadFile.
type DiskFaults struct {
	// NoSpaceAt fails write ops [NoSpaceAt, NoSpaceAt+NoSpaceRun) with an
	// error wrapping fsio.ErrNoSpace — a filesystem that fills up and
	// (once the window passes) has space reclaimed.
	NoSpaceAt  int
	NoSpaceRun int // window length; 0 means 1

	// TornWriteAt makes the TornWriteAt'th Write/WriteAt (counted apart from
	// the other write-family ops) persist only the first half of its buffer
	// while reporting full success — the lying disk a checksum layer exists
	// to catch. Detection happens at read time, not write time.
	TornWriteAt int

	// ReadErrAt fails read ops [ReadErrAt, ReadErrAt+ReadErrRun) with an
	// error wrapping fsio.ErrTransient. A run shorter than the reader's
	// retry budget is recoverable; a longer one must surface.
	ReadErrAt  int
	ReadErrRun int // window length; 0 means 1

	// SlowEvery sleeps SlowDelay before every SlowEvery'th op of either
	// family — degraded, not failing, storage.
	SlowEvery int
	SlowDelay time.Duration
}

// Stats counts the faults an FS actually injected — the ground truth for
// coverage accounting (an armed fault whose op index the run never
// reached injected nothing).
type Stats struct {
	NoSpace    int64 // write ops failed with ENOSPC
	TornWrites int64 // writes silently truncated
	ReadErrors int64 // read ops failed transiently
	Slowdowns  int64 // ops delayed
	WriteOps   int64 // total write-family ops observed
	ReadOps    int64 // total read-family ops observed
}

// FS wraps an fsio.FS with the DiskFaults plan. The op counters are
// shared by every file the FS hands out, so a trigger index addresses one
// global operation stream. Safe for concurrent use; under concurrency the
// assignment of op indices to goroutines is interleaving-dependent, which
// is fine for soak testing (the bitwise-identity assertion is
// interleaving-independent) and deterministic for the sequential layers.
type FS struct {
	inner fsio.FS
	plan  DiskFaults

	writes     atomic.Int64
	reads      atomic.Int64
	dataWrites atomic.Int64 // Write and WriteAt ops, TornWriteAt's count

	noSpace    atomic.Int64
	tornWrites atomic.Int64
	readErrors atomic.Int64
	slowdowns  atomic.Int64
}

// NewFS returns an injecting FS applying plan on top of inner (nil inner
// means the real OS).
func NewFS(plan DiskFaults, inner fsio.FS) *FS {
	if inner == nil {
		inner = fsio.OS{}
	}
	return &FS{inner: inner, plan: plan}
}

// Stats returns the injection counts so far.
func (f *FS) Stats() Stats {
	return Stats{
		NoSpace:    f.noSpace.Load(),
		TornWrites: f.tornWrites.Load(),
		ReadErrors: f.readErrors.Load(),
		Slowdowns:  f.slowdowns.Load(),
		WriteOps:   f.writes.Load(),
		ReadOps:    f.reads.Load(),
	}
}

func runLen(n int) int {
	if n < 1 {
		return 1
	}
	return n
}

func (f *FS) maybeSlow(op int64) {
	if f.plan.SlowEvery > 0 && op%int64(f.plan.SlowEvery) == 0 {
		f.slowdowns.Add(1)
		time.Sleep(f.plan.SlowDelay)
	}
}

// writeOp counts one write-family op and returns an injected error, or
// (nil, torn=true) when this op, a Write or WriteAt, must be truncated.
func (f *FS) writeOp(what string) (err error, torn bool) {
	op := f.writes.Add(1)
	f.maybeSlow(op)
	if at := int64(f.plan.NoSpaceAt); at > 0 && op >= at && op < at+int64(runLen(f.plan.NoSpaceRun)) {
		f.noSpace.Add(1)
		return fmt.Errorf("chaos: injected ENOSPC on %s (write op %d): %w", what, op, fsio.ErrNoSpace), false
	}
	return nil, strings.HasPrefix(what, "Write") && f.dataWrites.Add(1) == int64(f.plan.TornWriteAt)
}

// readOp counts one read-family op and returns an injected error.
func (f *FS) readOp(what string) error {
	op := f.reads.Add(1)
	f.maybeSlow(op)
	if at := int64(f.plan.ReadErrAt); at > 0 && op >= at && op < at+int64(runLen(f.plan.ReadErrRun)) {
		f.readErrors.Add(1)
		return fmt.Errorf("chaos: injected read error on %s (read op %d): %w", what, op, fsio.ErrTransient)
	}
	return nil
}

func (f *FS) MkdirAll(dir string) error { return f.inner.MkdirAll(dir) }

func (f *FS) CreateTemp(dir, pattern string) (fsio.File, error) {
	if err, _ := f.writeOp("CreateTemp"); err != nil {
		return nil, err
	}
	file, err := f.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &chaosFile{inner: file, fs: f}, nil
}

func (f *FS) Open(name string) (fsio.File, error) {
	if err := f.readOp("Open"); err != nil {
		return nil, err
	}
	file, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &chaosFile{inner: file, fs: f}, nil
}

func (f *FS) ReadFile(name string) ([]byte, error) {
	if err := f.readOp("ReadFile"); err != nil {
		return nil, err
	}
	return f.inner.ReadFile(name)
}

func (f *FS) Rename(oldpath, newpath string) error {
	if err, _ := f.writeOp("Rename"); err != nil {
		return err
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *FS) Remove(name string) error { return f.inner.Remove(name) }

func (f *FS) SyncDir(dir string) error { return f.inner.SyncDir(dir) }

// chaosFile threads each file op back through the owning FS's counters.
type chaosFile struct {
	inner fsio.File
	fs    *FS
}

func (c *chaosFile) Name() string { return c.inner.Name() }

func (c *chaosFile) Close() error { return c.inner.Close() }

func (c *chaosFile) Sync() error {
	// fsync is where a full filesystem often actually reports ENOSPC.
	if err, _ := c.fs.writeOp("Sync"); err != nil {
		return err
	}
	return c.inner.Sync()
}

// tornHalf persists only the front half of p via write, reporting len(p)
// written and no error — the caller believes the write landed.
func (c *chaosFile) tornHalf(p []byte, write func([]byte) (int, error)) (int, error) {
	c.fs.tornWrites.Add(1)
	if _, err := write(p[:len(p)/2]); err != nil {
		return 0, err
	}
	return len(p), nil
}

func (c *chaosFile) Write(p []byte) (int, error) {
	err, torn := c.fs.writeOp("Write")
	if err != nil {
		return 0, err
	}
	if torn && len(p) > 1 {
		return c.tornHalf(p, c.inner.Write)
	}
	return c.inner.Write(p)
}

func (c *chaosFile) WriteAt(p []byte, off int64) (int, error) {
	err, torn := c.fs.writeOp("WriteAt")
	if err != nil {
		return 0, err
	}
	if torn && len(p) > 1 {
		return c.tornHalf(p, func(q []byte) (int, error) { return c.inner.WriteAt(q, off) })
	}
	return c.inner.WriteAt(p, off)
}

func (c *chaosFile) Read(p []byte) (int, error) {
	if err := c.fs.readOp("Read"); err != nil {
		return 0, err
	}
	return c.inner.Read(p)
}

func (c *chaosFile) ReadAt(p []byte, off int64) (int, error) {
	if err := c.fs.readOp("ReadAt"); err != nil {
		return 0, err
	}
	return c.inner.ReadAt(p, off)
}

// Schedule is one composed fault scenario: transport faults for the
// simulated MPI world plus disk faults for the file-ops seam. Both sides
// derive from the same seed, so a schedule replays exactly.
type Schedule struct {
	Seed int64
	Run  int

	// MPI carries the transport faults (nil: none armed). Hard-fault
	// fire-once state lives in the plan, so restart attempts sharing it do
	// not re-inject.
	MPI *mpi.FaultPlan
	// Disk carries the disk-fault plan; arm it by wrapping the target
	// layer's FS with NewFS(Disk, nil).
	Disk DiskFaults

	// Armed lists the classes this schedule injects, primary first.
	Armed []Class
}

// String renders the schedule compactly for logs and reproducers.
func (s *Schedule) String() string {
	out := fmt.Sprintf("schedule{seed=%d run=%d armed=[", s.Seed, s.Run)
	for i, c := range s.Armed {
		if i > 0 {
			out += " "
		}
		out += c.String()
	}
	return out + "]}"
}

// ComposeOptions shapes the schedules Compose draws.
type ComposeOptions struct {
	// Ranks is the MPI world size fault targets are drawn from (default 4).
	Ranks int
}

// The bounds Compose draws fault points from. Each lies inside what a run
// performs — collective entries, disk writes, disk reads — or the fault
// may never fire; a stall must outlast the runner's comm deadline to
// surface. extra is the probability each non-primary class joins a
// schedule: composed faults, not one at a time.
const (
	collectives   = 6
	stallDuration = 700 * time.Millisecond
	writeOps      = 12
	readOps       = 16
	extra         = 0.25
)

// rotation is the primary-class cycle: run r's schedule always arms class
// rotation[r mod 6], so any six consecutive runs cover every class the
// acceptance bar names (SlowIO rides along as an extra only).
var rotation = [6]Class{Crash, Corrupt, Stall, NoSpace, TornWrite, ReadError}

// Compose draws the deterministic composed fault schedule for run index r:
// the rotation's primary class plus a seeded random selection of extras.
// Same (seed, r, opts) → identical schedule, including the fire-once fault
// state being fresh.
func Compose(seed int64, r int, opts ComposeOptions) *Schedule {
	if opts.Ranks <= 0 {
		opts.Ranks = 4
	}
	rng := rand.New(rand.NewSource(seed*1000003 + int64(r)*7919 + 5))
	s := &Schedule{Seed: seed, Run: r}

	primary := rotation[((r%6)+6)%6]
	want := map[Class]bool{primary: true}
	for _, c := range rotation {
		if c != primary && rng.Float64() < extra {
			want[c] = true
		}
	}
	if rng.Float64() < extra {
		want[SlowIO] = true
	}
	s.Armed = append(s.Armed, primary)
	for _, c := range []Class{Crash, Corrupt, Stall, NoSpace, TornWrite, ReadError, SlowIO} {
		if c != primary && want[c] {
			s.Armed = append(s.Armed, c)
		}
	}

	// Transport side. The RNG is always advanced identically so arming one
	// class never shifts another class's draw.
	mp := &mpi.FaultPlan{Seed: seed*31 + int64(r)}
	crashRank, crashColl := rng.Intn(opts.Ranks), rng.Intn(collectives)
	corruptRank, corruptExch := rng.Intn(opts.Ranks), rng.Intn(3)
	stallRank, stallColl := rng.Intn(opts.Ranks), rng.Intn(collectives)
	if want[Crash] {
		mp.Crash = &mpi.CrashFault{Rank: crashRank, Collective: crashColl}
	}
	if want[Corrupt] {
		mp.Corrupt = &mpi.CorruptFault{Rank: corruptRank, Exchange: corruptExch}
	}
	if want[Stall] {
		mp.Stall = &mpi.StallFault{Rank: stallRank, Collective: stallColl, Duration: stallDuration}
	}
	if mp.Crash != nil || mp.Corrupt != nil || mp.Stall != nil {
		s.MPI = mp
	}

	// Disk side, same always-advance discipline.
	noSpaceAt, noSpaceRun := 1+rng.Intn(writeOps), 1+rng.Intn(6)
	tornAt := 1 + rng.Intn(writeOps)
	readAt, readRun := 1+rng.Intn(readOps), 1+rng.Intn(4)
	slowEvery := 3 + rng.Intn(5)
	if want[NoSpace] {
		s.Disk.NoSpaceAt, s.Disk.NoSpaceRun = noSpaceAt, noSpaceRun
	}
	if want[TornWrite] {
		s.Disk.TornWriteAt = tornAt
	}
	if want[ReadError] {
		s.Disk.ReadErrAt, s.Disk.ReadErrRun = readAt, readRun
	}
	if want[SlowIO] {
		s.Disk.SlowEvery, s.Disk.SlowDelay = slowEvery, 200*time.Microsecond
	}
	return s
}
