package schedule

import (
	"slices"
	"sort"
)

// heuristicMapping implements the qubit-mapping heuristic of Sec. 3.6.2:
// assign bit locations so that as many clusters as possible act on
// low-order locations, where the cache set-associativity penalty of
// high-stride accesses (Fig. 6 / Fig. 9) does not bite.
//
// Locations 0–3 are assigned, in turn, to the qubit appearing in the most
// clusters; clusters acting on an already-assigned location are then
// ignored. Locations 4–7 are assigned the same way, except that after each
// step only clusters acting on two of these four locations are ignored.
// Remaining local locations go to qubits by descending residual cluster
// count; global locations keep qubit-index order.
func heuristicMapping(n, l int, resident uint64, clusters [][]int) []int {
	pos := make([]int, n)
	for q := range pos {
		pos[q] = -1
	}
	isResident := func(q int) bool { return resident&(1<<uint(q)) != 0 }

	// Live cluster set, as qubit lists restricted to resident qubits.
	type cl struct {
		qubits   []int
		assigned int // # qubits assigned to the current group of locations
		dead     bool
	}
	var live []*cl
	for _, qs := range clusters {
		c := &cl{}
		for _, q := range qs {
			if isResident(q) {
				c.qubits = append(c.qubits, q)
			}
		}
		if len(c.qubits) > 0 {
			live = append(live, c)
		}
	}

	assignedTo := make([]bool, n)
	freq := func() map[int]int {
		f := map[int]int{}
		for _, c := range live {
			if c.dead {
				continue
			}
			for _, q := range c.qubits {
				if !assignedTo[q] {
					f[q]++
				}
			}
		}
		return f
	}
	pickMax := func() int {
		f := freq()
		best, bestQ := -1, -1
		for q := 0; q < n; q++ {
			if !isResident(q) || assignedTo[q] {
				continue
			}
			if f[q] > best {
				best, bestQ = f[q], q
			}
		}
		return bestQ
	}

	// Locations 0–7, two groups of four: a cluster is dropped once need of
	// its qubits sit in the current group — one in 0–3, two in 4–7. A
	// cluster alive at location 4 has none in 0–3, so its count is the
	// second group's.
	nextLoc := 0
	for ; nextLoc < 8 && nextLoc < l; nextLoc++ {
		q := pickMax()
		if q < 0 {
			break
		}
		pos[q] = nextLoc
		assignedTo[q] = true
		need := 1 + nextLoc/4
		for _, c := range live {
			if !c.dead && slices.Contains(c.qubits, q) {
				c.assigned++
				c.dead = c.assigned >= need
			}
		}
	}
	// Remaining local locations: descending residual frequency, then index.
	var restQ []int
	f := freq()
	for q := 0; q < n; q++ {
		if isResident(q) && !assignedTo[q] {
			restQ = append(restQ, q)
		}
	}
	sort.Slice(restQ, func(i, j int) bool {
		if f[restQ[i]] != f[restQ[j]] {
			return f[restQ[i]] > f[restQ[j]]
		}
		return restQ[i] < restQ[j]
	})
	for _, q := range restQ {
		pos[q] = nextLoc
		nextLoc++
	}
	// Global locations in qubit order.
	g := l
	for q := 0; q < n; q++ {
		if !isResident(q) {
			pos[q] = g
			g++
		}
	}
	return pos
}
