package schedule

import (
	"fmt"
	"math/bits"
	"sort"

	"qusim/internal/circuit"
	"qusim/internal/gate"
)

// Build schedules a circuit into a Plan per the optimizations of Sec. 3.6:
// stages separated by global-to-local swaps, fused k ≤ KMax clusters within
// each stage, specialized diagonal gates on global qubits, boundary
// adjustment, and qubit mapping. Consecutive diagonals of a stage are
// folded into one (foldDiagonals) unless Clustering is off.
func Build(c *circuit.Circuit, opts Options) (*Plan, error) {
	return build(c, opts, opts.Clustering)
}

// build is Build with the diagonal fold on or off.
func build(c *circuit.Circuit, opts Options, fold bool) (*Plan, error) {
	if err := checkQubits(c.N); err != nil {
		return nil, err
	}
	if err := opts.validate(c.N); err != nil {
		return nil, err
	}
	opts.Costs = opts.Costs.resolve()
	info := gateInfos(c, opts.Costs)
	b := newBuilder(c, opts, info, nil, fold)
	// The mapping heuristic needs a first pass for the cluster qubit sets
	// only; fused matrices and diagonals wait for the pass that is kept.
	b.structureOnly = opts.Mapping == MapHeuristic
	plan, err := b.run()
	if err != nil {
		return nil, err
	}
	if opts.Mapping == MapHeuristic {
		pos := heuristicMapping(c.N, b.l, b.initialResident, b.clusterQubitSets)
		plan, err = newBuilder(c, opts, info, pos, fold).run()
		if err != nil {
			return nil, err
		}
	}
	return plan, nil
}

type builder struct {
	c    *circuit.Circuit
	opts Options
	n, l int

	pos []int // qubit -> current bit location
	loc []int // bit location -> qubit

	cl clusterer

	ops   []Op
	stats Stats
	stage int
	// structureOnly skips fusing matrices and materializing diagonals:
	// ops carry their kind and gate count only.
	structureOnly bool
	fold          bool // fold each stage's consecutive diagonals

	initialPos       []int // fixed initial layout, or nil to choose greedily
	initialResident  uint64
	clusterQubitSets [][]int // qubit-index sets of all emitted clusters
	gatesInClusters  int
}

// newBuilder takes opts with Costs resolved and the gateInfos of c under
// them.
func newBuilder(c *circuit.Circuit, opts Options, info []gateInfo, initialPos []int, fold bool) *builder {
	l := opts.LocalQubits
	if l > c.N {
		l = c.N
	}
	return &builder{c: c, opts: opts, n: c.N, l: l, initialPos: initialPos, fold: fold, cl: clusterer{info: info}}
}

func (b *builder) qubitMask(gi int) uint64 { return b.cl.info[gi].mask }

// specializable reports whether gate gi may execute on global qubits
// without communication under the configured specialization (Sec. 3.5).
func (b *builder) specializable(gi int) bool {
	if !b.cl.info[gi].diagonal {
		return false
	}
	if b.c.Gates[gi].K() == 1 {
		return b.opts.SpecializeDiagonal1Q
	}
	return b.opts.SpecializeDiagonal2Q
}

func (b *builder) run() (*Plan, error) {
	remaining := make([]int, len(b.c.Gates))
	for i := range remaining {
		remaining[i] = i
	}

	// Initial residency and layout.
	var resident uint64
	if b.initialPos != nil {
		b.pos = append([]int(nil), b.initialPos...)
		b.loc = make([]int, b.n)
		for q, p := range b.pos {
			b.loc[p] = q
		}
		for q := 0; q < b.n; q++ {
			if b.pos[q] < b.l {
				resident |= 1 << uint(q)
			}
		}
	} else {
		resident = b.chooseResidency(remaining, 0, true)
		b.layoutInitial(resident)
	}
	b.initialResident = resident
	initial := append([]int(nil), b.pos...)

	b.stats = Stats{
		Qubits:       b.n,
		LocalQubits:  b.l,
		Gates:        len(b.c.Gates),
		ClusterSizes: map[int]int{},
	}
	b.countBaselines()

	guard := 0
	for len(remaining) > 0 {
		guard++
		if guard > 4*len(b.c.Gates)+8 {
			return nil, fmt.Errorf("schedule: stage partition did not converge (policy %v)", b.opts.SwapPolicy)
		}
		sel, rest := b.takeStage(remaining, resident)
		if len(sel) == 0 {
			// The lowest-order policy can stall by evicting a needed
			// qubit; fall back to the greedy choice for this boundary.
			// The swap closes a stage of its own.
			next := b.chooseResidencyGreedy(remaining, resident)
			if next != resident {
				b.emitSwap(resident, next)
				b.stats.Stages++
				b.stage++
			}
			resident = next
			continue
		}
		stageOps := b.clusterStage(sel, resident)

		var next uint64
		if len(rest) > 0 {
			next = b.chooseResidency(rest, resident, false)
			if b.opts.AdjustBoundaries {
				stageOps, rest = b.adjustBoundary(stageOps, sel, rest, resident, next)
			}
		}
		b.emitStageOps(stageOps)
		b.stats.Stages++
		if len(rest) > 0 {
			b.emitSwap(resident, next)
			resident = next
		}
		b.stage++
		remaining = rest
	}

	if b.stats.Clusters > 0 {
		b.stats.GatesPerCluster = float64(b.gatesInClusters) / float64(b.stats.Clusters)
	}
	plan := &Plan{
		N:          b.n,
		L:          b.l,
		Ops:        b.ops,
		InitialPos: initial,
		FinalPos:   append([]int(nil), b.pos...),
		Stats:      b.stats,
	}
	if got := b.coveredGates(); got != len(b.c.Gates) {
		return nil, fmt.Errorf("schedule: plan covers %d gates, circuit has %d", got, len(b.c.Gates))
	}
	return plan, nil
}

func (b *builder) coveredGates() int {
	total := 0
	for _, op := range b.ops {
		if op.Kind == OpCluster || op.Kind == OpDiagonal {
			total += op.GateCount
		}
	}
	return total
}

// layoutInitial assigns resident qubits to local locations (in qubit order)
// and the rest to global locations.
func (b *builder) layoutInitial(resident uint64) {
	b.pos = make([]int, b.n)
	b.loc = make([]int, b.n)
	nextLocal, nextGlobal := 0, b.l
	for q := 0; q < b.n; q++ {
		if resident&(1<<uint(q)) != 0 {
			b.pos[q] = nextLocal
			nextLocal++
		} else {
			b.pos[q] = nextGlobal
			nextGlobal++
		}
	}
	for q, p := range b.pos {
		b.loc[p] = q
	}
}

// takeStage scans gates in program order and selects every gate executable
// without communication under the residency set, reordering only across
// trivially commuting gates (disjoint qubits): a gate whose qubits hit a
// blocked qubit blocks its own qubits (Sec. 3.6.1 step 1).
func (b *builder) takeStage(gates []int, resident uint64) (sel, rest []int) {
	var blocked uint64
	for _, gi := range gates {
		qm := b.qubitMask(gi)
		if qm&blocked != 0 {
			blocked |= qm
			rest = append(rest, gi)
			continue
		}
		if qm&^resident == 0 || b.specializable(gi) {
			sel = append(sel, gi)
		} else {
			blocked |= qm
			rest = append(rest, gi)
		}
	}
	return sel, rest
}

func (b *builder) chooseResidency(rest []int, prev uint64, first bool) uint64 {
	if b.opts.SwapPolicy == SwapLowestOrder && !first {
		return b.chooseResidencyLowestOrder(prev)
	}
	return b.chooseResidencyGreedy(rest, prev)
}

// chooseResidencyGreedy builds the next resident set by admitting the
// qubits of the longest schedulable prefix of the remaining circuit — the
// paper's "cheap search algorithm to find better local qubits to swap
// with".
func (b *builder) chooseResidencyGreedy(rest []int, prev uint64) uint64 {
	var r, blocked uint64
	count := 0
	for _, gi := range rest {
		qm := b.qubitMask(gi)
		if qm&blocked != 0 {
			blocked |= qm
			continue
		}
		if b.specializable(gi) {
			continue
		}
		need := qm &^ r
		nb := bits.OnesCount64(need)
		if count+nb <= b.l {
			r |= need
			count += nb
		} else {
			blocked |= qm
		}
	}
	if count < b.l {
		r = b.fillResidency(r, count, rest, prev)
	}
	return r
}

// fillResidency tops the set up to l qubits, preferring still-resident
// qubits with the earliest next use (cheap Belady-style retention). Ties
// go to the lowest bit location, so the qubits left out of a layout leave
// from the top local locations, where the swap wants them (emitSwap); the
// initial residency, chosen before any layout, breaks them by qubit.
func (b *builder) fillResidency(r uint64, count int, rest []int, prev uint64) uint64 {
	firstUse := make([]int, b.n)
	for q := range firstUse {
		firstUse[q] = len(rest) + 1
	}
	for i, gi := range rest {
		for _, q := range b.c.Gates[gi].Qubits {
			if firstUse[q] > i {
				firstUse[q] = i
			}
		}
	}
	type cand struct{ q, use, prevBonus, at int }
	var cands []cand
	for q := 0; q < b.n; q++ {
		if r&(1<<uint(q)) != 0 {
			continue
		}
		bonus := 1
		if prev&(1<<uint(q)) != 0 {
			bonus = 0
		}
		at := q
		if b.pos != nil {
			at = b.pos[q]
		}
		cands = append(cands, cand{q, firstUse[q], bonus, at})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].prevBonus != cands[j].prevBonus {
			return cands[i].prevBonus < cands[j].prevBonus
		}
		if cands[i].use != cands[j].use {
			return cands[i].use < cands[j].use
		}
		return cands[i].at < cands[j].at
	})
	for _, cd := range cands {
		if count == b.l {
			break
		}
		r |= 1 << uint(cd.q)
		count++
	}
	return r
}

// chooseResidencyLowestOrder is the paper's upper-bound baseline: swap all
// global qubits in, evicting the lowest-order local qubits.
func (b *builder) chooseResidencyLowestOrder(prev uint64) uint64 {
	g := b.n - b.l
	if g <= 0 {
		return prev
	}
	// Incoming: every currently-global qubit (at most l of them).
	var incoming []int
	for q := 0; q < b.n; q++ {
		if prev&(1<<uint(q)) == 0 {
			incoming = append(incoming, q)
		}
	}
	if len(incoming) > b.l {
		incoming = incoming[:b.l]
	}
	// Evict the locals with the lowest bit locations.
	var locals []int
	for q := 0; q < b.n; q++ {
		if prev&(1<<uint(q)) != 0 {
			locals = append(locals, q)
		}
	}
	sort.Slice(locals, func(i, j int) bool { return b.pos[locals[i]] < b.pos[locals[j]] })
	next := prev
	for i := 0; i < len(incoming); i++ {
		next &^= 1 << uint(locals[i])
		next |= 1 << uint(incoming[i])
	}
	return next
}

// emitSwap emits the local permutation and the global-to-local swap that
// turn residency cur into next, updating the layout.
func (b *builder) emitSwap(cur, next uint64) {
	outgoing := cur &^ next
	incoming := next &^ cur
	q := bits.OnesCount64(incoming)
	if q != bits.OnesCount64(outgoing) {
		panic("schedule: unbalanced residency change")
	}
	if q == 0 {
		return
	}
	// 1) Bring outgoing qubits to the q highest local locations: each one
	// below l−q trades places with a staying qubit in [l−q, l), both taken
	// in ascending location order. The relabeling is a set of disjoint
	// transpositions — an involution, one in-place pass — and the identity
	// when every outgoing qubit already sits at the top.
	var below, above []int
	for p := 0; p < b.l; p++ {
		out := outgoing&(1<<uint(b.loc[p])) != 0
		if p < b.l-q && out {
			below = append(below, p)
		} else if p >= b.l-q && !out {
			above = append(above, p)
		}
	}
	if len(below) > 0 {
		perm := make([]int, b.l)
		for p := range perm {
			perm[p] = p
		}
		for j, p := range below {
			a := above[j]
			perm[p], perm[a] = a, p
			b.loc[p], b.loc[a] = b.loc[a], b.loc[p]
			b.pos[b.loc[p]], b.pos[b.loc[a]] = p, a
		}
		b.ops = append(b.ops, Op{Kind: OpLocalPerm, Perm: perm, Stage: b.stage})
		b.stats.LocalPerms++
	}
	// 2) Exchange local locations [l−q, l) with the incoming qubits'
	// global locations, pairwise.
	ins := setBits(incoming)
	sort.Slice(ins, func(i, j int) bool { return b.pos[ins[i]] < b.pos[ins[j]] })
	localPos := make([]int, q)
	globalPos := make([]int, q)
	for j := 0; j < q; j++ {
		localPos[j] = b.l - q + j
		globalPos[j] = b.pos[ins[j]]
	}
	b.ops = append(b.ops, Op{Kind: OpSwap, LocalPos: localPos, GlobalPos: globalPos, Stage: b.stage})
	b.stats.Swaps++
	for j := 0; j < q; j++ {
		lq := b.loc[localPos[j]]
		gq := b.loc[globalPos[j]]
		b.loc[localPos[j]], b.loc[globalPos[j]] = gq, lq
		b.pos[gq], b.pos[lq] = localPos[j], globalPos[j]
	}
}

func setBits(m uint64) []int {
	var out []int
	for m != 0 {
		q := bits.TrailingZeros64(m)
		out = append(out, q)
		m &^= 1 << uint(q)
	}
	return out
}

// countBaselines records how many communication steps the per-gate scheme
// of [5]/[19] would need on this circuit with the identity mapping: every
// gate touching a qubit at location ≥ l is one communication step, unless
// specialization elides it (Fig. 5, lower panels).
func (b *builder) countBaselines() {
	for i := range b.c.Gates {
		g := &b.c.Gates[i]
		global := false
		for _, q := range g.Qubits {
			if q >= b.l {
				global = true
				break
			}
		}
		if !global {
			continue
		}
		b.stats.BaselineGlobalGatesDense++
		if !b.specializable(i) {
			b.stats.BaselineGlobalGates++
		}
	}
}

// adjustBoundary implements step 3 of Sec. 3.6.1: if the trailing clusters
// of a stage act on qubits that stay resident after the swap, defer their
// gates into the next stage (performing the swap "earlier"), shrinking the
// total cluster count without adding swaps.
func (b *builder) adjustBoundary(stageOps []stageOp, sel, rest []int, cur, next uint64) ([]stageOp, []int) {
	keep := cur & next
	// Last gate index per qubit within sel.
	lastOn := map[int]int{}
	for _, gi := range sel {
		for _, q := range b.c.Gates[gi].Qubits {
			lastOn[q] = gi
		}
	}
	deferred := []int{}
	for pops := 0; pops < 2 && len(stageOps) > 0; pops++ {
		op := stageOps[len(stageOps)-1]
		if !op.cluster || len(op.gates) == 0 {
			break
		}
		ok := true
		memberSet := map[int]bool{}
		for _, gi := range op.gates {
			memberSet[gi] = true
		}
		for _, gi := range op.gates {
			if b.qubitMask(gi)&^keep != 0 {
				ok = false
				break
			}
			for _, q := range b.c.Gates[gi].Qubits {
				if last := lastOn[q]; last != gi && !memberSet[last] {
					ok = false
					break
				}
			}
			if !ok {
				break
			}
		}
		if !ok {
			break
		}
		stageOps = stageOps[:len(stageOps)-1]
		deferred = append(op.gates, deferred...)
	}
	if len(deferred) > 0 {
		rest = append(deferred, rest...)
	}
	return stageOps, rest
}

// emitStageOps finalizes a stage's operations: fuses cluster matrices and
// materializes diagonal entries, using the current layout, then folds them.
func (b *builder) emitStageOps(stageOps []stageOp) {
	first := len(b.ops)
	for _, sop := range stageOps {
		switch {
		case b.structureOnly:
			b.emitStructure(sop)
		case sop.cluster:
			b.emitCluster(sop.gates)
		default:
			b.emitDiag(sop.gates[0], false)
		}
	}
	if b.fold && !b.structureOnly {
		b.foldDiagonals(first)
	}
}

// emitStructure records what the mapping heuristic reads of a stage op —
// a cluster's qubit set — and an op that accounts for its gates.
func (b *builder) emitStructure(sop stageOp) {
	kind := OpDiagonal
	if sop.cluster {
		kind = OpCluster
		var qm uint64
		for _, gi := range sop.gates {
			qm |= b.qubitMask(gi)
		}
		b.clusterQubitSets = append(b.clusterQubitSets, setBits(qm))
	}
	b.ops = append(b.ops, Op{Kind: kind, GateCount: len(sop.gates), Stage: b.stage})
}

func (b *builder) emitCluster(gates []int) {
	if len(gates) == 1 {
		g := &b.c.Gates[gates[0]]
		if g.IsDiagonal() {
			// Avoid building a dense 2^k matrix for large diagonal gates
			// (e.g. the n-qubit oracles of the Grover example). It still
			// counts as a cluster: it is one kernel invocation.
			b.emitDiag(gates[0], true)
			return
		}
	}
	// Collect the qubit set.
	var qm uint64
	for _, gi := range gates {
		qm |= b.qubitMask(gi)
	}
	qubits := setBits(qm)
	sort.Slice(qubits, func(i, j int) bool { return b.pos[qubits[i]] < b.pos[qubits[j]] })
	positions := make([]int, len(qubits))
	slot := map[int]int{}
	for i, q := range qubits {
		positions[i] = b.pos[q]
		slot[q] = i
	}
	k := len(qubits)
	ops := make([]gate.Op, len(gates))
	for i, gi := range gates {
		g := &b.c.Gates[gi]
		pos := make([]int, len(g.Qubits))
		for j, q := range g.Qubits {
			pos[j] = slot[q]
		}
		ops[i] = gate.Op{U: g.Matrix(), Pos: pos}
	}
	fused := gate.Fuse(ops, k)
	b.clusterQubitSets = append(b.clusterQubitSets, qubits)
	b.stats.Clusters++
	b.stats.ClusterSizes[k]++
	b.gatesInClusters += len(gates)
	if fused.IsDiagonal(1e-14) {
		// Execution optimization: a cluster of purely diagonal gates runs
		// through the diagonal kernel (it still counts as one cluster).
		b.ops = append(b.ops, Op{
			Kind: OpDiagonal, Diag: fused.Diagonal(), Positions: positions,
			GateCount: len(gates), Stage: b.stage,
		})
		return
	}
	b.ops = append(b.ops, Op{
		Kind: OpCluster, Matrix: fused, Positions: positions,
		GateCount: len(gates), Stage: b.stage,
	})
}

// diagonalOp builds the OpDiagonal for a diagonal circuit gate, given the
// bit location of each qubit: positions are sorted ascending and the
// diagonal entries are permuted accordingly. Build and PerGate both emit
// diagonal gates through it (Sec. 3.5).
func diagonalOp(g *circuit.Gate, pos func(q int) int) Op {
	d := g.Matrix().Diagonal()
	k := len(g.Qubits)
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, c int) bool { return pos(g.Qubits[idx[a]]) < pos(g.Qubits[idx[c]]) })
	positions := make([]int, k)
	perm := make([]int, k) // gate-local j -> sorted slot
	for rank, j := range idx {
		positions[rank] = pos(g.Qubits[j])
		perm[j] = rank
	}
	dd := make([]complex128, len(d))
	for x := range d {
		y := 0
		for j := 0; j < k; j++ {
			if x&(1<<j) != 0 {
				y |= 1 << perm[j]
			}
		}
		dd[y] = d[x]
	}
	return Op{Kind: OpDiagonal, Diag: dd, Positions: positions, GateCount: 1}
}

// emitDiag emits one diagonal gate directly from its diagonal entries. It
// serves both specialized global diagonal gates (Sec. 3.5,
// countAsCluster=false) and singleton local diagonal clusters.
func (b *builder) emitDiag(gi int, countAsCluster bool) {
	g := &b.c.Gates[gi]
	op := diagonalOp(g, func(q int) int { return b.pos[q] })
	op.Stage = b.stage
	b.ops = append(b.ops, op)
	if countAsCluster {
		b.stats.Clusters++
		b.stats.ClusterSizes[len(g.Qubits)]++
		b.gatesInClusters++
		b.clusterQubitSets = append(b.clusterQubitSets, append([]int(nil), g.Qubits...))
	} else {
		b.stats.DiagonalOps++
	}
}
