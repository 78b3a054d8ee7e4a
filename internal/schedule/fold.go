package schedule

import "math/bits"

// foldWidth bounds the positions of a diagonal foldDiagonals builds: a
// constant, at the knee measured on QFT(23) at l = 20 (DESIGN §12). At 10
// the widest window table kernels.Diagonal prepares is 2^9 rows × 64 entries,
// 512 KiB in f64, and a block touches the 2^|positions in [6, 16)| of them.
const foldWidth = 10

// foldDiagonals folds each run of consecutive OpDiagonals in b.ops[from:] —
// the ops of the stage just emitted — into one diagonal while the union of
// their positions has at most foldWidth entries: one sweep instead of one per
// op, exact up to rounding since diagonals commute. It never reaches past a
// cluster, a permutation or the stage; Stats.FoldedDiagonals counts the ops
// it removed.
func (b *builder) foldDiagonals(from int) {
	out := b.ops[:from]
	for _, op := range b.ops[from:] {
		if last := len(out) - 1; last >= from && op.Kind == OpDiagonal && out[last].Kind == OpDiagonal {
			if folded, ok := foldDiagonal(&out[last], &op); ok {
				out[last] = folded
				b.stats.FoldedDiagonals++
				continue
			}
		}
		out = append(out, op)
	}
	b.ops = out
}

// foldDiagonal returns the diagonal that applies a and then b, on the sorted
// union of their positions, if that has at most foldWidth entries. Each entry
// is a's times b's, in that order.
func foldDiagonal(a, b *Op) (Op, bool) {
	mask := positionMask(a.Positions) | positionMask(b.Positions)
	if bits.OnesCount64(mask) > foldWidth {
		return Op{}, false
	}
	pos := setBits(mask)
	d := make([]complex128, 1<<len(pos))
	for x := range d {
		d[x] = a.Diag[subIndex(x, pos, a.Positions)] * b.Diag[subIndex(x, pos, b.Positions)]
	}
	return Op{Kind: OpDiagonal, Diag: d, Positions: pos, GateCount: a.GateCount + b.GateCount, Stage: a.Stage}, true
}

func positionMask(pos []int) (m uint64) {
	for _, p := range pos {
		m |= 1 << uint(p)
	}
	return m
}

// subIndex is the entry of a diagonal on qs at entry x of one on pos ⊇ qs,
// both sorted: the bits of x at the slots of pos that qs holds, packed.
func subIndex(x int, pos, qs []int) int {
	i, j := 0, 0
	for s, p := range pos {
		if j < len(qs) && qs[j] == p {
			i |= (x >> s & 1) << j
			j++
		}
	}
	return i
}
