package dist

import (
	"testing"

	"qusim/internal/circuit"
	"qusim/internal/mpi"
	"qusim/internal/schedule"
)

// Fault-injected distributed runs must produce bit-identical amplitudes
// and identical traffic accounting: the FaultPlan perturbs only timing and
// interleaving, never semantics. Any difference is a synchronization bug
// in the swap communication scheme.

func faultTestPlan(t *testing.T) *schedule.Plan {
	t.Helper()
	r, c := circuit.GridForQubits(12)
	circ := circuit.Supremacy(circuit.SupremacyOptions{Rows: r, Cols: c, Depth: 16, Seed: 5})
	plan, err := schedule.Build(circ, schedule.DefaultOptions(9))
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestRunUnderFaultsMatchesCleanRun(t *testing.T) {
	plan := faultTestPlan(t)
	clean, err := Run(plan, Options{Ranks: 8, Init: InitUniform, GatherState: true})
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := Run(plan, Options{
		Ranks: 8, Init: InitUniform, GatherState: true,
		Faults: mpi.DefaultFaults(21),
	})
	if err != nil {
		t.Fatal(err)
	}
	if faulty.FaultEvents == 0 {
		t.Fatal("fault plan armed but nothing injected")
	}
	if clean.FaultEvents != 0 {
		t.Errorf("clean run reports %d fault events", clean.FaultEvents)
	}
	for i := range clean.Amplitudes {
		if clean.Amplitudes[i] != faulty.Amplitudes[i] {
			t.Fatalf("amplitude %d differs under faults: %v vs %v", i, clean.Amplitudes[i], faulty.Amplitudes[i])
		}
	}
	if clean.CommSteps != faulty.CommSteps || clean.CommBytes != faulty.CommBytes {
		t.Errorf("traffic accounting drifted under faults: steps %d/%d bytes %d/%d",
			clean.CommSteps, faulty.CommSteps, clean.CommBytes, faulty.CommBytes)
	}
}

func TestBaselineUnderFaultsMatchesCleanRun(t *testing.T) {
	r, c := circuit.GridForQubits(10)
	circ := circuit.Supremacy(circuit.SupremacyOptions{Rows: r, Cols: c, Depth: 12, Seed: 6})
	opts := Options{Ranks: 4, Init: InitUniform, GatherState: true}
	clean := perGateRun(t, circ, true, false, opts)
	opts.Faults = mpi.DefaultFaults(22)
	faulty := perGateRun(t, circ, true, false, opts)
	if faulty.FaultEvents == 0 {
		t.Fatal("fault plan armed but nothing injected")
	}
	for i := range clean.Amplitudes {
		if clean.Amplitudes[i] != faulty.Amplitudes[i] {
			t.Fatalf("amplitude %d differs under faults", i)
		}
	}
	if clean.CommSteps != faulty.CommSteps || clean.CommBytes != faulty.CommBytes {
		t.Errorf("traffic accounting drifted: steps %d/%d bytes %d/%d",
			clean.CommSteps, faulty.CommSteps, clean.CommBytes, faulty.CommBytes)
	}
}
