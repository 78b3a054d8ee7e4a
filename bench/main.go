// Command bench is the repository's benchmark: six named workloads, three
// end-to-end metrics (time to solution, set-up time, peak memory) and a
// traced per-layer ledger. See README.md in this directory and
// ../BENCHMARK.json.
//
//	bash bench/run.sh                      every workload, untraced
//	bash bench/run.sh -trace 1             … plus the per-layer pass
//	bash bench/run.sh -selfcheck           the untraced set twice, compared
//	bash bench/run.sh --workload sup24-f64 --seed 7 --seconds 10 --trace 0
//
// With -workload the process measures that one workload itself and prints,
// as its last line, one JSON object {correct, attempted, failed, metrics}.
// Without it, it runs each workload in a child process of its own, one after
// another, and prints a summary.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"qusim/internal/circuit"
	"qusim/internal/par"
	"qusim/internal/perfmodel"
)

const (
	minReps        = 3 // untraced reps per run, whatever -seconds says
	minTracedPairs = 1 // (untraced, traced) rep pairs per traced run, likewise
	setupSamples   = 5 // set-up is repeated in this many fresh processes

	diskProbeSize = 1 << 30    // bytes written and read by the disk probe
	exitSignalled = 130        // exit code after SIGINT/SIGTERM
	resultMaxLine = 256 * 1024 // longest line a child may print
)

type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	traceOut  string
	workdir   string
	selfcheck bool
	setupOnly bool
}

// result is the last line a child prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "measure this one workload in this process (default: every workload, each in a child process)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 14, "how long one run measures")
	flag.IntVar(&cfg.trace, "trace", 0, "1: traced pass, prints the per-layer metrics; 0: untraced pass, prints the end-to-end metrics")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "with -trace 1, write the spans here as Chrome trace_event JSON (per workload: <name>.<file>)")
	flag.StringVar(&cfg.workdir, "workdir", "", "directory for state files, checkpoints and probes (default: a new temp dir); a private subdirectory is created and removed")
	flag.BoolVar(&cfg.selfcheck, "selfcheck", false, "run the untraced set twice and compare the two against the regression bounds")
	flag.BoolVar(&cfg.setupOnly, "setup-only", false, "internal: set the workload up, then exit (a set-up time sample)")
	flag.Parse()
	if flag.NArg() > 0 || cfg.seconds <= 0 || (cfg.trace != 0 && cfg.trace != 1) {
		flag.Usage()
		os.Exit(2)
	}

	// State files, checkpoints and probe files all live in one private
	// directory that is removed however the process ends.
	if cfg.workdir != "" {
		if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
			fatal(err)
		}
	}
	dir, err := os.MkdirTemp(cfg.workdir, "qusim-bench-")
	if err != nil {
		fatal(err)
	}
	// A signal cancels ctx: children are killed, the rep loops stop at the
	// next rep boundary, and the directory is removed on the way out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)

	code := 0
	switch {
	case cfg.workload != "":
		code = runChild(ctx, cfg, dir)
	case cfg.selfcheck:
		code = runSelfcheck(ctx, cfg, dir)
	default:
		code = runAll(ctx, cfg, dir)
	}
	if ctx.Err() != nil {
		code = exitSignalled
	}
	stop()
	os.RemoveAll(dir)
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// settle returns the heap of the previous rep to the operating system, so
// that its garbage neither inflates the next rep's peak RSS nor triggers a
// collection in the middle of its allocation.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// ---- one workload, in this process ----------------------------------------

// processStart is read when the package initialises, as close to process
// start as the program can see.
var processStart = time.Now()

// session is one workload being measured in this process.
type session struct {
	ctx        context.Context
	cfg        config
	w          workload
	dir        string // private scratch directory
	circuits   []*circuit.Circuit
	genSeconds float64
	inst       *instance
	ck         *checker
	first      *outcome // the first rep's outcome: every later rep must repeat it
	metrics    map[string]metricValue
}

func runChild(ctx context.Context, cfg config, dir string) int {
	w, ok := workloadByName(cfg.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", cfg.workload)
		return 2
	}
	s := &session{ctx: ctx, cfg: cfg, w: w, dir: dir, ck: &checker{workload: w.name}, metrics: map[string]metricValue{}}
	t0 := time.Now()
	s.circuits = w.gen(cfg.seed)
	s.genSeconds = time.Since(t0).Seconds()
	var err error
	if s.inst, err = w.setup(s.circuits, cfg.seed, dir, s.ck); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: set-up: %v\n", w.name, err)
		return 1
	}
	ownSetup := time.Since(processStart).Seconds()
	if cfg.setupOnly {
		if s.ck.failed > 0 {
			return 1
		}
		return 0
	}
	fmt.Printf("workload %s  seed %d  GOMAXPROCS %d  state %.0f MiB  set-up %.4f s\n", w.name, cfg.seed, runtime.GOMAXPROCS(0),
		float64(int64(s.inst.ampBytes)<<s.inst.qubits)/(1<<20), ownSetup)

	if cfg.trace == 0 {
		err = s.measureEndToEnd()
	} else {
		err = s.measureLayers()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Printf("checks  attempted %d  failed %d\n", s.ck.attempted, s.ck.failed)
	line, err := json.Marshal(result{Correct: s.ck.failed == 0, Attempted: s.ck.attempted, Failed: s.ck.failed, Metrics: s.metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Println(string(line))
	if s.ck.failed > 0 {
		return 1
	}
	return 0
}

// rep runs and verifies one rep and removes the files it left. Every path is
// deterministic — the traced pass makes the untraced pass's calls one by
// one — so each rep must reproduce the first one's reductions bit for bit.
func (s *session) rep(tr *tracer) (*outcome, error) {
	if err := s.ctx.Err(); err != nil {
		return nil, err
	}
	settle()
	o, err := s.inst.run(tr)
	if o != nil && o.dir != "" {
		defer os.RemoveAll(o.dir)
	}
	if err != nil {
		return nil, err
	}
	s.inst.verify(o, s.ck)
	if s.first == nil {
		s.first = o
	} else {
		s.ck.check("rep repeats the first rep", o.norm == s.first.norm && o.entropy == s.first.entropy && slices.Equal(o.cuts, s.first.cuts),
			"norm %v vs %v, entropy %v vs %v", o.norm, s.first.norm, o.entropy, s.first.entropy)
	}
	return o, nil
}

// measureEndToEnd is the untraced pass, the one that counts: reps until
// -seconds of timed region have been measured (at least minReps), peak RSS
// read after the last one, then set-up repeated in fresh processes.
func (s *session) measureEndToEnd() error {
	var times []float64
	spent := 0.0
	for len(times) < minReps || spent+median(times) <= s.cfg.seconds {
		o, err := s.rep(nil)
		if err != nil {
			return err
		}
		times = append(times, o.seconds)
		spent += o.seconds
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return fmt.Errorf("getrusage: %w", err)
	}

	// Set-up time is process start → ready for the first timed rep. Work a
	// later change moves before the first rep — tuning, calibration, plan
	// caches — may happen once per process, so each sample is a fresh
	// process, timed from outside.
	var setups []float64
	for i := 0; i < setupSamples; i++ {
		d, err := s.setupSample()
		if err != nil {
			return err
		}
		setups = append(setups, d)
	}

	report := func(name, unit string, value float64, xs []float64) {
		fmt.Printf("%-14s %.6g %s  (median %.6g  min %.6g  max %.6g  n %d  samples %.4g)\n", name, value, unit,
			median(xs), slices.Min(xs), slices.Max(xs), len(xs), xs)
		s.metrics[name] = metricValue{Value: value, Unit: unit}
	}
	// Both timings are the fastest sample, not the median one: contention on
	// a shared host only ever adds time, and over ten-seed sets the minimum
	// spread half as wide as the median (README.md, "Steadiness").
	report("time_s", "s", slices.Min(times), times)
	report("setup_s", "s", slices.Min(setups), setups)
	rss := float64(ru.Maxrss) / 1024 // Linux reports KiB
	report("peak_rss_mib", "MiB", max(rss, rssFloorMiB), []float64{rss})
	return nil
}

// setupSample runs this binary with -setup-only and returns its wall time,
// spawn to exit.
func (s *session) setupSample() (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.CommandContext(s.ctx, self, "-workload", s.w.name, "-seed", strconv.FormatInt(s.cfg.seed, 10),
		"-workdir", s.dir, "-setup-only")
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("set-up sample: %w", err)
	}
	return time.Since(t0).Seconds(), nil
}

// probeHost measures what this machine can do, in the same run as the
// kernels it is compared with.
func (s *session) probeHost() (map[string]float64, error) {
	h := map[string]float64{
		"host.cores":      float64(runtime.NumCPU()),
		"par.workers":     float64(par.Workers()),
		"par.dispatch_us": dispatchMicros(),
	}
	if llc := llcBytes(); llc > 0 {
		gbps, arrayBytes := triadGBps(llc)
		h["host.llc_mib"] = float64(llc) / (1 << 20)
		h["host.triad_gbps"] = gbps
		fmt.Printf("host  LLC %.0f MiB  triad arrays 3 x %.0f MiB  %.2f GB/s\n", float64(llc)/(1<<20), float64(arrayBytes)/(1<<20), gbps)
		settle()
	} else {
		fmt.Println("host  LLC size unreadable: no bandwidth probe, every roof_frac reads 0")
	}
	// After the seconds of triad the cores run at speed (an idle sandbox
	// ramps up over about a second); the best of three is the roof.
	for i := 0; i < 3; i++ {
		h["host.fma_gflops"] = max(h["host.fma_gflops"], fmaGFlops())
	}
	fmt.Printf("host  scalar complex multiply-add %.2f GFLOP/s on %d cores\n", h["host.fma_gflops"], runtime.GOMAXPROCS(0))
	if s.inst.probeDisk {
		wr, rd, err := diskMBps(s.dir, diskProbeSize)
		if err != nil {
			return nil, err
		}
		h["host.disk_write_mbps"], h["host.disk_read_mbps"] = wr, rd
		fmt.Printf("host  disk %d MiB sequential  write+sync %.0f MB/s  read %.0f MB/s (page cache included)\n", diskProbeSize>>20, wr, rd)
	}
	if s.inst.probeAlltoall > 0 {
		gbps, err := alltoallGBps(distRanks, s.inst.probeAlltoall)
		if err != nil {
			return nil, err
		}
		h["mpi.alltoall_gbps"] = gbps
	}
	return h, nil
}

// measureLayers is the traced pass: the host probe, then untraced and traced
// reps in turn (so that both see the same machine state) until -seconds have
// gone by, probe included. The per-layer numbers come from the fastest
// traced rep.
func (s *session) measureLayers() error {
	t0 := time.Now()
	host, err := s.probeHost()
	if err != nil {
		return err
	}
	tr := newTracer(s.w.name)
	var plain, traced []float64
	var outcomes []*outcome
	spent := time.Since(t0).Seconds()
	for len(traced) < minTracedPairs || spent+median(plain)+median(traced) <= s.cfg.seconds {
		po, err := s.rep(nil)
		if err != nil {
			return err
		}
		to, err := s.rep(tr)
		if err != nil {
			return err
		}
		plain, traced = append(plain, po.seconds), append(traced, to.seconds)
		outcomes = append(outcomes, to)
		spent += po.seconds + to.seconds
	}
	if s.cfg.traceOut != "" {
		if err := tr.writeFile(s.cfg.traceOut); err != nil {
			return err
		}
		fmt.Printf("trace  %d spans written to %s\n", len(tr.spans), s.cfg.traceOut)
	}

	// The representative traced rep is the fastest one, as time_s is the
	// fastest untraced rep.
	best := outcomes[0]
	for _, o := range outcomes[1:] {
		if o.seconds < best.seconds {
			best = o
		}
	}
	prof := tr.profile(best.root)
	layers := map[string]float64{"circuit.gen_s": s.genSeconds}
	for _, c := range s.circuits {
		layers["circuit.gates"] += float64(len(c.Gates))
	}
	maps.Copy(layers, host)
	maps.Copy(layers, s.inst.layers)
	maps.Copy(layers, best.layers)
	for name, sec := range prof.byName {
		layers[name+"_s"] = sec
	}
	for class, k := range best.kernels {
		prof.kernels[class] = k
	}
	maps.Copy(layers, kernelLayers(prof.kernels, s.inst, host))
	if run := layers["oocvec.run_s"]; run > 0 {
		// The floor traffic of a paged run: every stage reads and writes the
		// whole state once.
		layers["oocvec.stream_mbps"] = layers["schedule.stages"] * 2 * layers["oocvec.file_mib"] * (1 << 20) / run / 1e6
	}
	if save := layers["ckpt.save_s"]; save > 0 {
		layers["ckpt.save_mbps"] = layers["ckpt.written"] * layers["oocvec.file_mib"] * (1 << 20) / save / 1e6
	}
	fastPlain := slices.Min(plain)
	layers["trace.overhead_frac"] = (best.seconds - fastPlain) / fastPlain
	layers["trace.unattributed_frac"] = prof.rootOwn / prof.wall

	fmt.Printf("reps  untraced fastest %.4f s (n %d)  traced fastest %.4f s (n %d)\n", fastPlain, len(plain), best.seconds, len(traced))
	for _, m := range perLayerMetrics {
		v := layers[m.name]
		delete(layers, m.name)
		s.metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		if v != 0 {
			fmt.Printf("%-28s %.6g %s\n", m.name, v, m.unit)
		}
	}
	for name := range layers {
		// Spans with no metric of their own (sweep.point, dist.run) are in
		// the trace file only.
		if _, isSpan := prof.byName[strings.TrimSuffix(name, "_s")]; !isSpan {
			return fmt.Errorf("internal: value %q is not a listed per-layer metric", name)
		}
	}
	return nil
}

// kernelLayers turns the traced kernel-class totals into the roofline rows.
// Bytes are computed, not measured: one pass reads and writes the whole
// state once. FLOPs come from perfmodel. The roof is the lower of the
// scalar multiply-add rate and bandwidth × operations per byte, both
// measured by this run's host probe.
func kernelLayers(totals map[string]kernelTotals, inst *instance, host map[string]float64) map[string]float64 {
	out := map[string]float64{}
	passBytes := 2 * float64(int64(inst.ampBytes)<<inst.qubits)
	triad, fma := host["host.triad_gbps"], host["host.fma_gflops"]
	for class, k := range totals {
		if k.seconds <= 0 {
			continue
		}
		p := "kernels." + class + "."
		gbps := float64(k.passes) * passBytes / k.seconds / 1e9
		out[p+"passes"], out[p+"s"], out[p+"gbps"] = float64(k.passes), k.seconds, gbps
		switch class {
		case "perm":
		case "diag":
			// One complex multiply per amplitude at most: bandwidth is the
			// only roof.
			if triad > 0 {
				out[p+"roof_frac"] = gbps / triad
			}
		default:
			kq := int(class[1] - '0')
			gflops := float64(k.passes) * perfmodel.KernelFlops(inst.qubits, kq) / k.seconds / 1e9
			out[p+"gflops"] = gflops
			if triad > 0 {
				// OperationalIntensity is per complex128 byte; a complex64
				// state moves half the bytes for the same FLOPs.
				oi := perfmodel.OperationalIntensity(kq) * 16 / float64(inst.ampBytes)
				out[p+"roof_frac"] = gflops / min(fma, triad*oi)
			}
		}
	}
	return out
}

// ---- every workload, each in a child process ------------------------------

// spawn runs one workload in a child process, relays what it prints and
// returns the result on its last line.
func spawn(ctx context.Context, cfg config, dir, workload string, trace int) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-workload", workload, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace), "-workdir", dir,
	}
	if trace == 1 && cfg.traceOut != "" {
		args = append(args, "-trace-out", filepath.Join(filepath.Dir(cfg.traceOut), workload+"."+filepath.Base(cfg.traceOut)))
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var last string
	sc := bufio.NewScanner(out)
	sc.Buffer(nil, resultMaxLine)
	for sc.Scan() {
		if last != "" {
			fmt.Println("  " + last)
		}
		last = sc.Text()
	}
	_, _ = io.Copy(io.Discard, out) // drain after a scanner error so the child can exit; Wait reports its fate
	werr := cmd.Wait()
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if werr != nil {
			return nil, fmt.Errorf("%s: %w", workload, werr)
		}
		return nil, fmt.Errorf("%s: last line is not a result: %w", workload, err)
	}
	return &res, nil
}

// runSet runs one pass (trace 0 or 1) over every workload and returns the
// results by workload name; failed counts the workloads whose checks failed
// or that did not finish.
func runSet(ctx context.Context, cfg config, dir string, trace int) (results map[string]*result, failed int) {
	results = map[string]*result{}
	for _, w := range workloads {
		if ctx.Err() != nil {
			break
		}
		fmt.Printf("== %s (trace %d)\n", w.name, trace)
		res, err := spawn(ctx, cfg, dir, w.name, trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			failed++
			continue
		}
		results[w.name] = res
		if !res.Correct {
			failed++
		}
	}
	return results, failed
}

func printSummary(results map[string]*result) {
	fmt.Printf("\n%-16s %12s %12s %14s %8s %8s\n", "workload", "time_s", "setup_s", "peak_rss_mib", "checks", "failed")
	for _, w := range workloads {
		r := results[w.name]
		if r == nil {
			fmt.Printf("%-16s did not finish\n", w.name)
			continue
		}
		note := ""
		if !r.Correct {
			note = "  timings void: a check failed"
		}
		fmt.Printf("%-16s %12.4f %12.4f %14.1f %8d %8d%s\n", w.name,
			r.Metrics["time_s"].Value, r.Metrics["setup_s"].Value, r.Metrics["peak_rss_mib"].Value, r.Attempted, r.Failed, note)
	}
}

func runAll(ctx context.Context, cfg config, dir string) int {
	results, failed := runSet(ctx, cfg, dir, 0)
	if cfg.trace == 1 {
		_, f := runSet(ctx, cfg, dir, 1)
		failed += f
	}
	printSummary(results)
	if failed > 0 {
		return 1
	}
	return 0
}

// runSelfcheck runs the untraced set twice and holds the benchmark to its
// own regression bounds: two runs of the same code must agree within them.
func runSelfcheck(ctx context.Context, cfg config, dir string) int {
	first, f1 := runSet(ctx, cfg, dir, 0)
	second, f2 := runSet(ctx, cfg, dir, 0)
	bad := f1 + f2
	fmt.Printf("\n%-16s %-14s %12s %12s %9s %7s\n", "workload", "metric", "first", "second", "rel.diff", "bound")
	for _, w := range workloads {
		a, b := first[w.name], second[w.name]
		if a == nil || b == nil {
			continue
		}
		for _, m := range endToEndMetrics {
			x, y := a.Metrics[m.name].Value, b.Metrics[m.name].Value
			diff := (y - x) / x
			verdict := ""
			if math.Abs(diff) > m.bound {
				verdict = "  BEYOND BOUND"
				bad++
			}
			fmt.Printf("%-16s %-14s %12.4f %12.4f %+8.2f%% %6.0f%%%s\n", w.name, m.name, x, y, 100*diff, 100*m.bound, verdict)
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}
