// Package collectiveorder is the analysistest corpus for the
// collectiveorder analyzer: rank-conditioned collectives, conditional
// success returns inside World.Run closures, and the suppression paths.
package collectiveorder

import (
	"errors"

	"qusim/internal/mpi"
)

// rankConditionedBarrier is the PR 2 deadlock class in miniature: rank 0
// enters the barrier, everyone else never does.
func rankConditionedBarrier(c *mpi.Comm) {
	if c.Rank() == 0 {
		c.Barrier() // want `collectiveorder: mpi\.Barrier under rank-dependent condition \(line 15\)`
	}
}

// taintedCondition guards a collective with a value derived from the rank
// rather than the rank itself; the taint propagation must still see it.
func taintedCondition(c *mpi.Comm) float64 {
	r := c.Rank()
	group := r >> 1
	if group == 0 {
		return c.AllreduceSum(1) // want `collectiveorder: mpi\.AllreduceSum under rank-dependent condition \(line 25\)`
	}
	return 0
}

// rankSwitch covers the switch-statement region: each case is reachable by
// a subset of ranks only.
func rankSwitch(c *mpi.Comm) {
	switch c.Rank() {
	case 0:
		c.Barrier() // want `collectiveorder: mpi\.Barrier under rank-dependent condition \(line 34\)`
	}
}

// earlySuccessReturn deserts the barrier on the empty-rank path: a nil
// return does not poison the world, so the other ranks block forever.
func earlySuccessReturn(w *mpi.World, empty bool) error {
	return w.Run(func(c *mpi.Comm) error {
		if empty {
			return nil // want `collectiveorder: conditional .return nil. inside World\.Run closure skips the mpi\.Barrier at line 47`
		}
		c.Barrier()
		return nil
	})
}

// earlyErrorReturn is the legitimate counterpart: an error return poisons
// the world and unblocks every other rank, so it is not flagged.
func earlyErrorReturn(w *mpi.World, bad bool) error {
	return w.Run(func(c *mpi.Comm) error {
		if bad {
			return errors.New("corrupt local state")
		}
		c.Barrier()
		return nil
	})
}

// uniformSum is rank-uniform: every rank reaches both collectives in the
// same order. Nothing to flag.
func uniformSum(c *mpi.Comm, local float64) float64 {
	c.Barrier()
	return c.AllreduceSum(local)
}

// suppressedLine exercises the line-scoped suppression path.
func suppressedLine(c *mpi.Comm) {
	if c.Rank() == 0 {
		//qlint:ignore collectiveorder fixture: single-rank world, the branch covers every rank
		c.Barrier()
	}
}

// suppressedFunc exercises the function-scoped suppression path: the
// directive in this doc comment covers both GroupAlltoall calls.
//
//qlint:ignore collectiveorder both arms enter the same all-to-all over rank bit 0, so the collective sequence is rank-uniform
func suppressedFunc(c *mpi.Comm, buf, tmp [][]complex128) {
	if c.Rank()&1 == 0 {
		c.GroupAlltoall([]int{0}, buf, tmp)
	} else {
		c.GroupAlltoall([]int{0}, tmp, buf)
	}
}

// localOnlyArm pins the CFG upgrade: the inner `return nil` sits in a
// nested branch whose every path returns before the barrier, so the rank
// that takes it deserts nothing the localOnly arm would have executed.
// The v1 positional check ("a collective appears later in the source")
// flagged it; the natural-successor reachability query must not. The
// OUTER return is the real desertion point and stays flagged.
func localOnlyArm(w *mpi.World, localOnly, cached bool) error {
	return w.Run(func(c *mpi.Comm) error {
		if localOnly {
			if cached {
				return nil
			}
			processLocal()
			return nil // want `collectiveorder: conditional .return nil. inside World\.Run closure skips the mpi\.Barrier at line \d+`
		}
		c.Barrier()
		return nil
	})
}

func processLocal() {}

// loopDesertion: the success return deserts the next iteration's
// collective through the loop back edge, which only a CFG can see.
func loopDesertion(w *mpi.World, stages int, done func(int) bool) error {
	return w.Run(func(c *mpi.Comm) error {
		for s := 0; s < stages; s++ {
			if done(s) {
				return nil // want `collectiveorder: conditional .return nil. inside World\.Run closure skips the mpi\.Barrier at line \d+`
			}
			c.Barrier()
		}
		return nil
	})
}

// rankConditionedExchange: the swap's collective is held to the same order —
// only the ranks of the lower half enter the exchange, their partners never
// do.
func rankConditionedExchange(c *mpi.Comm, local []complex128) {
	if c.Rank() < c.Size()/2 {
		c.GroupExchange([]int{0}, local) // want `collectiveorder: mpi\.GroupExchange under rank-dependent condition \(line \d+\)`
	}
}
