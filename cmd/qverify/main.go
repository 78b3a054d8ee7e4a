// Command qverify runs the differential + metamorphic verification harness
// across every execution path of the simulator, plus MPI fault-injection
// scenarios and a checkpoint-recovery sweep that crashes a distributed run
// at every stage boundary and demands a bitwise-identical resumed state.
// Exit status 1 means a divergence or property violation was found
// (reproducers are printed).
//
// Examples:
//
//	qverify -quick                 # CI tier: trimmed matrix, ~a second
//	qverify                        # full matrix
//	qverify -qubits 12 -circuits 200 -seed 7   # soak run
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"qusim/internal/par"
	"qusim/internal/verify"
)

func main() {
	var (
		quick    = flag.Bool("quick", false, "trimmed matrix and circuit count (CI tier)")
		qubits   = flag.Int("qubits", 0, "qubits per generated circuit (0 = default for mode)")
		circuits = flag.Int("circuits", 0, "seeded random circuits in the matrix (0 = default)")
		gates    = flag.Int("gates", 0, "gates per random circuit (0 = 6·qubits)")
		seed     = flag.Int64("seed", 1, "master seed (circuits and fault plans derive from it)")
		tol      = flag.Float64("tol", 1e-10, "max-amplitude-delta tolerance")
		f32tol   = flag.Float64("f32-tol", 5e-4, "tolerance for the single-precision backends")
		faults   = flag.Int("fault-circuits", 0, "circuits rerun under MPI fault injection (0 = default)")
		workers  = flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		verbose  = flag.Bool("v", false, "per-phase progress")
	)
	flag.Parse()
	// Reject, before any work, what the harness would panic on or ignore:
	// the recovery sweep's 4 ranks need 3 qubits, a count is never negative,
	// and under a tolerance ≤ 0 every row diverges, under NaN or +Inf none.
	switch {
	case *qubits != 0 && (*qubits < 3 || *qubits > 62):
		usage("-qubits must be 0 (the default) or from 3 to 62, got %d", *qubits)
	case min(*circuits, *gates, *faults, *workers) < 0:
		usage("-circuits, -gates, -fault-circuits and -workers must not be negative, got %d, %d, %d and %d",
			*circuits, *gates, *faults, *workers)
	case !(min(*tol, *f32tol) > 0) || max(*tol, *f32tol) > math.MaxFloat64:
		usage("-tol and -f32-tol must be positive and finite, got %g and %g", *tol, *f32tol)
	}
	par.SetWorkers(*workers) // 0 = GOMAXPROCS

	var log io.Writer
	if *verbose {
		log = os.Stderr
	}
	rep, err := verify.Run(verify.Options{
		Qubits: *qubits, Circuits: *circuits, Gates: *gates,
		Seed: *seed, Tol: *tol, F32Tol: *f32tol, Quick: *quick,
		FaultCircuits: *faults, Log: log,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "qverify:", err)
		os.Exit(2)
	}
	fmt.Print(rep.String())
	if rep.Failed() {
		os.Exit(1)
	}
}

// usage exits 2 on a flag error, with the reason and the usage text.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "qverify: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}
