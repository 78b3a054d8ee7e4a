// Package par is the shared-memory parallel layer of the simulator — the
// stand-in for the OpenMP layer of Sec. 3.3 of Häner & Steiger. Loops over
// the state vector are statically chunked across a persistent pool of
// goroutine workers, mirroring OpenMP's static schedule with the collapse
// directive (the iteration space handed to For is already the collapsed,
// flat outer loop). Like an OpenMP thread team, the workers outlive any one
// loop: a sweep costs chunk handoffs over a channel, not goroutine
// creation.
package par

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"qusim/internal/telemetry"
)

var workers atomic.Int64

func init() {
	workers.Store(int64(runtime.GOMAXPROCS(0)))
}

// tel is the pool's telemetry sink. The pool is process-global (workers
// outlive any one run), so the hook is too: one atomic pointer read per
// chunk when disarmed. Armed, each pool worker records a span per chunk on
// its own timeline (pid telemetry.PoolPID, tid = worker id) plus busy/idle
// histograms, and callers count the chunks they ran themselves.
var tel atomic.Pointer[telemetry.Telemetry]

// SetTelemetry arms (or, with nil / telemetry.Disabled, disarms) pool
// instrumentation. Safe to call at any time; workers pick up the change at
// their next chunk.
func SetTelemetry(t *telemetry.Telemetry) {
	if !t.Enabled() {
		tel.Store(nil)
		return
	}
	t.Gauge("par.workers").Set(int64(Workers()))
	t.Gauge("par.pool_size").SetMax(int64(poolPeek()))
	tel.Store(t)
}

// workerTel is one pool worker's cached handles, refreshed only when the
// armed telemetry instance changes.
type workerTel struct {
	cur      *telemetry.Telemetry
	scope    *telemetry.Scope
	chunkNs  *telemetry.Histogram
	idleNs   *telemetry.Histogram
	chunks   *telemetry.Counter
	idleFrom time.Time
}

// refresh re-resolves the handles if the armed instance changed, returning
// whether instrumentation is currently on.
func (wt *workerTel) refresh(id int) bool {
	t := tel.Load()
	if t != wt.cur {
		wt.cur = t
		wt.scope, wt.chunkNs, wt.idleNs, wt.chunks = nil, nil, nil, nil
		wt.idleFrom = time.Time{}
		if t != nil {
			wt.scope = t.Scope(telemetry.PoolPID, id, "par worker pool", fmt.Sprintf("worker %d", id))
			wt.chunkNs = t.Histogram("par.chunk_ns")
			wt.idleNs = t.Histogram("par.worker_idle_ns")
			wt.chunks = t.Counter("par.chunks")
		}
	}
	return wt.cur != nil
}

// SetWorkers sets the number of parallel workers used by For. n < 1 resets
// to GOMAXPROCS. It returns the previous value. The strong-scaling
// experiments (Fig. 7 and Fig. 10) sweep this knob.
func SetWorkers(n int) int {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	return int(workers.Swap(int64(n)))
}

// Workers returns the current worker count.
func Workers() int { return int(workers.Load()) }

// task is one contiguous chunk handed to the pool.
type task struct {
	f       func(slot, lo, hi int)
	slot    int
	lo, hi  int
	pending *atomic.Int64 // outstanding chunks of the owning call
	done    chan struct{} // closed when pending reaches zero
}

// The persistent worker pool. Workers are spawned on demand up to the
// largest parallelism any call has asked for and then live for the
// process. Parallelism per call is bounded by its chunk count, not the
// pool size, so SetWorkers keeps its meaning. An idle worker polls the
// queue for spinWindow after its last task, then blocks (OpenMP's active
// wait policy), so a call within the window starts on every core at once,
// not behind a wake-up. At most GOMAXPROCS − 1 workers poll (the caller
// holds the last P); spinPeak is their high-water mark.
var (
	taskq    = make(chan task, 1024)
	poolMu   sync.Mutex
	poolSize int
	spinners atomic.Int64
	spinPeak atomic.Int64
)

// spinWindow: the longest in DESIGN §7's sweep that cost no workload anything.
const spinWindow = 50 * time.Microsecond

func ensurePool(n int) {
	if n <= poolPeek() {
		return
	}
	poolMu.Lock()
	for poolSize < n {
		go worker(poolSize)
		poolSize++
	}
	size := poolSize
	poolMu.Unlock()
	if t := tel.Load(); t != nil {
		t.Gauge("par.pool_size").SetMax(int64(size))
	}
}

// worker is one pool goroutine: it drains the queue for the life of the
// process, recording occupancy when telemetry is armed — a "chunk" span
// per task on its own timeline (the gaps are idle time, also summarized in
// the par.worker_idle_ns histogram).
func worker(id int) {
	var wt workerTel
	for {
		t, ok := task{}, false
		if n := spinners.Add(1); n < int64(runtime.GOMAXPROCS(0)) {
			for p := spinPeak.Load(); p < n && !spinPeak.CompareAndSwap(p, n); p = spinPeak.Load() {
			}
			t, ok = poll(nil)
		}
		if spinners.Add(-1); !ok {
			t = <-taskq
		}
		if !wt.refresh(id) {
			runTask(t)
			continue
		}
		t0 := time.Now()
		if !wt.idleFrom.IsZero() {
			wt.idleNs.Observe(int64(t0.Sub(wt.idleFrom)))
		}
		// Record before signalling completion, so a caller returning from
		// For observes the chunk already counted.
		t.f(t.slot, t.lo, t.hi)
		end := time.Now()
		wt.chunkNs.Observe(int64(end.Sub(t0)))
		wt.chunks.Inc()
		wt.scope.Complete("par", "chunk", t0, end.Sub(t0), telemetry.A("n", t.hi-t.lo))
		wt.idleFrom = end
		if t.pending.Add(-1) == 0 {
			close(t.done)
		}
	}
}

// poll polls the queue for up to spinWindow, yielding the P every 32 polls,
// and gives up early once done is closed (a nil done never is).
func poll(done chan struct{}) (task, bool) {
	deadline := time.Now().Add(spinWindow)
	for i := 1; i%32 != 0 || time.Now().Before(deadline); i++ {
		if i%32 == 0 {
			runtime.Gosched()
		}
		select {
		case t := <-taskq:
			return t, true
		case <-done:
			return task{}, false
		default:
		}
	}
	return task{}, false
}

func poolPeek() int {
	poolMu.Lock()
	n := poolSize
	poolMu.Unlock()
	return n
}

func runTask(t task) {
	t.f(t.slot, t.lo, t.hi)
	if t.pending.Add(-1) == 0 {
		close(t.done)
	}
}

// width computes the chunk parallelism of a call, preserving the grain
// semantics: work smaller than one grain per worker shrinks the team.
func width(n, grain int) int {
	if n <= 0 {
		return 0
	}
	if grain < 1 {
		grain = 1
	}
	w := Workers()
	if w > n/grain {
		w = n / grain
	}
	return w
}

// dispatch splits [0, n) into at most w contiguous chunks and runs
// f(slot, lo, hi) over all of them: the first chunk on the caller (so the
// caller works instead of idling) and the rest on the pool. While waiting,
// the caller drains the queue, which keeps nested and concurrent calls
// deadlock-free on the fixed pool. Requires w ≥ 2.
func dispatch(n, w int, f func(slot, lo, hi int)) {
	chunk := (n + w - 1) / w
	nchunks := (n + chunk - 1) / chunk
	if nchunks <= 1 {
		f(0, 0, n)
		return
	}
	var pending atomic.Int64
	pending.Store(int64(nchunks - 1))
	done := make(chan struct{})
	ensurePool(nchunks - 1)
	slot := 1
	for lo := chunk; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		t := task{f: f, slot: slot, lo: lo, hi: hi, pending: &pending, done: done}
		select {
		case taskq <- t:
		default:
			// Queue full (heavily nested or very wide fan-out): run the
			// chunk on the caller rather than block.
			if tt := tel.Load(); tt != nil {
				tt.Counter("par.chunks_inline").Inc()
			}
			runTask(t)
		}
		slot++
	}
	f(0, 0, chunk)
	for {
		t, ok := poll(done) // so a finished pool chunk need not wake the caller
		if !ok {
			select {
			case t = <-taskq:
			case <-done:
				return
			}
		}
		// The caller steals queued work while waiting for its own chunks —
		// count it so occupancy numbers add up.
		if tt := tel.Load(); tt != nil {
			tt.Counter("par.steals").Inc()
		}
		runTask(t)
	}
}

// For runs f over [0, n) split into contiguous chunks, one chunk per worker,
// mimicking OpenMP static scheduling. grain is the minimum chunk size; work
// smaller than one grain runs inline on the caller. f must be safe to call
// concurrently on disjoint ranges.
func For(n, grain int, f func(lo, hi int)) {
	w := width(n, grain)
	if w <= 1 {
		if n > 0 {
			f(0, n)
		}
		return
	}
	dispatch(n, w, func(_, lo, hi int) { f(lo, hi) })
}

// ReduceFloat64 runs f over [0, n) in parallel chunks; each chunk returns a
// partial float64 which is summed. Used for norms, probabilities and the
// entropy reduction of Sec. 4.2.2.
func ReduceFloat64(n, grain int, f func(lo, hi int) float64) float64 {
	sum, _ := ReducePair(n, grain, func(lo, hi int) (float64, float64) { return f(lo, hi), 0 })
	return sum
}

// ReducePair is ReduceFloat64 for two sums accumulated in the same pass.
// The partials are added in chunk order, so a result depends on the worker
// count but not on which worker finished first.
func ReducePair(n, grain int, f func(lo, hi int) (float64, float64)) (a, b float64) {
	w := width(n, grain)
	if w <= 1 {
		if n <= 0 {
			return 0, 0
		}
		return f(0, n)
	}
	parts := make([][2]float64, w)
	dispatch(n, w, func(slot, lo, hi int) { parts[slot][0], parts[slot][1] = f(lo, hi) })
	for _, p := range parts {
		a += p[0]
		b += p[1]
	}
	return a, b
}
