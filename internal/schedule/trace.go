package schedule

import "qusim/internal/telemetry"

// OpTraceArgs builds the canonical trace annotations for one plan op: the
// stage index plus the qubit-set / fused-cluster details that make a
// timeline readable without the plan at hand. dist's ranks attach them to
// the span of each op that is a pass of its own; oocvec records a span per
// stage and per chunk transfer, not per op. Only called when tracing is
// enabled.
func OpTraceArgs(op *Op) []telemetry.Arg {
	args := []telemetry.Arg{telemetry.A("stage", op.Stage)}
	switch op.Kind {
	case OpCluster:
		args = append(args,
			telemetry.A("k", len(op.Positions)),
			telemetry.A("pos", op.Positions),
			telemetry.A("gates", op.GateCount))
	case OpDiagonal:
		args = append(args,
			telemetry.A("pos", op.Positions),
			telemetry.A("gates", op.GateCount))
	case OpLocalPerm:
		args = append(args, telemetry.A("width", len(op.Perm)))
	case OpSwap:
		args = append(args,
			telemetry.A("local", op.LocalPos),
			telemetry.A("global", op.GlobalPos))
	}
	return args
}
