package schedule

import (
	"math/bits"

	"qusim/internal/circuit"
)

// stageOp is an intermediate operation of one stage: either a cluster of
// gates to fuse, or a single specialized diagonal gate touching global
// qubits. gates holds circuit gate indices in program order.
type stageOp struct {
	cluster bool
	gates   []int
}

// gateInfo is what the clustering reads of a circuit gate, computed once
// per Build.
type gateInfo struct {
	mask     uint64  // qubit set
	queues   []int   // per-qubit queues the gate waits in: its qubits
	diagonal bool    // Gate.IsDiagonal
	alone    float64 // Options.Costs price of the gate run on its own
}

func gateInfos(c *circuit.Circuit, costs CostTable) []gateInfo {
	// A gate on no qubits (a global phase) waits in a queue of its own,
	// past the last qubit, so the frontier scans find it.
	phaseQueue := []int{c.N}
	info := make([]gateInfo, len(c.Gates))
	for i := range c.Gates {
		g := &c.Gates[i]
		gi := gateInfo{queues: g.Qubits, diagonal: g.IsDiagonal()}
		for _, q := range g.Qubits {
			gi.mask |= 1 << uint(q)
		}
		if len(g.Qubits) == 0 {
			gi.queues = phaseQueue
		}
		gi.alone = costs.cluster(len(g.Qubits), gi.diagonal)
		info[i] = gi
	}
	return info
}

// clusterer holds one stage's dependency frontier — per qubit, the queue
// of the stage's gates on it in program order and a cursor to the first
// one not yet clustered — plus the scratch the seed search grows trial
// clusters in. A gate is ready when it heads the queue of every qubit it
// acts on, so only queue heads are ever examined. The slices are reused
// from stage to stage.
type clusterer struct {
	info     []gateInfo
	sel      []int   // the stage's gates: stage-local index → circuit gate
	resident uint64  // qubits local in this stage
	queues   [][]int // queues[q]: stage-local indices of the gates on q
	head     []int   // head[q]: committed cursor into queues[q]
	trial    []int   // cursors of the cluster being grown
	seeds    []int
	best     grownCluster
	cand     grownCluster
}

// grownCluster is a trial cluster of the seed search.
type grownCluster struct {
	members  []int // stage-local indices, in order of admission
	qubits   uint64
	diagonal bool    // every member is a diagonal gate
	cost     float64 // price of the cluster's one pass
}

func (cl *clusterer) reset(sel []int, resident uint64, nq int) {
	cl.sel, cl.resident = sel, resident
	if cl.queues == nil {
		cl.queues = make([][]int, nq)
		cl.head = make([]int, nq)
		cl.trial = make([]int, nq)
	}
	for q := range cl.queues {
		cl.queues[q] = cl.queues[q][:0]
		cl.head[q] = 0
	}
	for si, gi := range sel {
		for _, q := range cl.info[gi].queues {
			cl.queues[q] = append(cl.queues[q], si)
		}
	}
}

func (cl *clusterer) gate(si int) *gateInfo { return &cl.info[cl.sel[si]] }

func (cl *clusterer) local(si int) bool { return cl.gate(si).mask&^cl.resident == 0 }

// front returns the gate heading queue q under the cursors cur, or −1.
func (cl *clusterer) front(q int, cur []int) int {
	if p := cur[q]; p < len(cl.queues[q]) {
		return cl.queues[q][p]
	}
	return -1
}

// ready reports whether si heads every queue it waits in.
func (cl *clusterer) ready(si int, cur []int) bool {
	for _, q := range cl.gate(si).queues {
		if cl.front(q, cur) != si {
			return false
		}
	}
	return true
}

func (cl *clusterer) advance(si int, cur []int) {
	for _, q := range cl.gate(si).queues {
		cur[q]++
	}
}

// clusterStage merges the stage's gates into clusters of at most KMax
// qubits (Sec. 3.6.1 step 2), growing each only while Options.Costs says
// the wider pass is worth it. Gates acting on a global qubit are
// specialized diagonal gates and are emitted as singleton ops. A small
// local search tries every ready gate as the cluster seed and keeps the
// cluster that is cheapest per merged gate.
func (b *builder) clusterStage(sel []int, resident uint64) []stageOp {
	cl := &b.cl
	cl.reset(sel, resident, b.n+1)
	var out []stageOp
	for remaining := len(sel); remaining > 0; {
		// 1) Drain ready specialized diagonal gates on global qubits, in
		// program order — they cost no communication and no kernel
		// invocation.
		for {
			si := -1
			for q := range cl.queues {
				if f := cl.front(q, cl.head); f >= 0 && (si < 0 || f < si) && !cl.local(f) && cl.ready(f, cl.head) {
					si = f
				}
			}
			if si < 0 {
				break
			}
			cl.advance(si, cl.head)
			remaining--
			out = append(out, stageOp{cluster: false, gates: []int{sel[si]}})
		}
		if remaining == 0 {
			break
		}
		// 2) Grow the best cluster among ready local gates. Seeds are
		// collected in program order; a gate on several qubits heads
		// several queues and is taken at its first.
		cl.seeds = cl.seeds[:0]
		first := -1
		for q := range cl.queues {
			f := cl.front(q, cl.head)
			if f < 0 || cl.gate(f).queues[0] != q || !cl.local(f) || !cl.ready(f, cl.head) {
				continue
			}
			cl.seeds = append(cl.seeds, f)
			if first < 0 || f < first {
				first = f
			}
		}
		if first < 0 {
			// Cannot happen: the earliest unassigned gate is always ready,
			// and if it were global it would have drained above.
			panic("schedule: no ready gates during clustering")
		}
		if !b.opts.Clustering {
			// Ablation mode: each gate is its own cluster, in order.
			cl.advance(first, cl.head)
			remaining--
			out = append(out, stageOp{cluster: true, gates: []int{sel[first]}})
			continue
		}
		if b.opts.NoSeedSearch {
			// Ablation: earliest ready gate seeds, no alternatives tried.
			cl.seeds = append(cl.seeds[:0], first)
		}
		for i, seed := range cl.seeds {
			cl.grow(seed, b.opts.KMax, &b.opts.Costs)
			if i == 0 || cl.cand.better(&cl.best) {
				cl.best, cl.cand = cl.cand, cl.best
			}
		}
		gates := make([]int, len(cl.best.members))
		for i, si := range cl.best.members {
			gates[i] = sel[si]
			cl.advance(si, cl.head)
		}
		remaining -= len(gates)
		out = append(out, stageOp{cluster: true, gates: gates})
	}
	return out
}

// better orders trial clusters: lower cost per merged gate (compared
// cross-multiplied, so equal-cost clusters compare by gate count exactly),
// then fewer qubits, then the earlier seed.
func (g *grownCluster) better(than *grownCluster) bool {
	if a, b := g.cost*float64(len(than.members)), than.cost*float64(len(g.members)); a != b {
		return a < b
	}
	if a, b := bits.OnesCount64(g.qubits), bits.OnesCount64(than.qubits); a != b {
		return a < b
	}
	return g.members[0] < than.members[0]
}

// with prices the cluster grown by gate gi; ok reports whether that costs
// the cluster's pass no more than the gate would cost standing alone.
func (g *grownCluster) with(gi *gateInfo, costs *CostTable) (w grownCluster, ok bool) {
	w.qubits = g.qubits | gi.mask
	w.diagonal = g.diagonal && gi.diagonal
	w.cost = costs.cluster(bits.OnesCount64(w.qubits), w.diagonal)
	return w, w.cost-g.cost <= gi.alone
}

// grow simulates growing a cluster from seed into cl.cand: repeatedly admit
// the ready local gate that adds the fewest qubits while staying within
// kmax — gates inside the cluster's qubit set first, that is — taking the
// earliest among equals, until the table prices no ready gate in (see
// with). The admission rule is optimistic: it weighs a wider pass against
// the gate standing alone, though the gate might have ridden a later
// cluster for less. So the cluster kept is the prefix of the growth that is
// cheapest per merged gate, the longest such — which sees the gates a
// widening lets in for free, and under a flat table is the whole growth.
func (cl *clusterer) grow(seed, kmax int, costs *CostTable) {
	cur := cl.trial
	copy(cur, cl.head)
	sg := cl.gate(seed)
	g := &cl.cand
	*g = grownCluster{members: append(g.members[:0], seed), qubits: sg.mask, diagonal: sg.diagonal, cost: sg.alone}
	if bits.OnesCount64(g.qubits) > kmax {
		// A single gate larger than kmax still becomes its own cluster.
		return
	}
	cl.advance(seed, cur)
	keep := *g
	for {
		bestSi, bestGrow := -1, kmax+1
		var bestW grownCluster
		for q := range cl.queues {
			f := cl.front(q, cur)
			if f < 0 || !cl.local(f) {
				continue
			}
			gi := cl.gate(f)
			grow := bits.OnesCount64(gi.mask &^ g.qubits)
			if bits.OnesCount64(g.qubits)+grow > kmax || grow > bestGrow ||
				(grow == bestGrow && f >= bestSi) || !cl.ready(f, cur) {
				continue
			}
			if w, ok := g.with(gi, costs); ok {
				bestSi, bestGrow, bestW = f, grow, w
			}
		}
		if bestSi < 0 {
			break
		}
		bestW.members = append(g.members, bestSi)
		*g = bestW
		cl.advance(bestSi, cur)
		if g.cost*float64(len(keep.members)) <= keep.cost*float64(len(g.members)) {
			keep = *g
		}
	}
	keep.members = g.members[:len(keep.members)]
	*g = keep
}
