package dist

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"qusim/internal/circuit"
	"qusim/internal/schedule"
	"qusim/internal/statevec"
	"qusim/internal/telemetry"
)

// TestRanksExecuteBlockedRunsConcurrently puts eight ranks inside blocked
// runs at once — shards of 2^17 amplitudes, two blocks each, every rank's
// blocks on par's shared pool, all ranks executing one shared Program per
// stage — under the profile and the tracer, which are what share state
// with the run (run `go test -race`): the gathered state
// is bit for bit Plan.Run's, the profile still counts every op of the plan
// under its own kind, and the trace holds one "run" span per blocked run
// carrying its op count where it held one span per op.
func TestRanksExecuteBlockedRunsConcurrently(t *testing.T) {
	const n, ranks = 20, 8
	plan, err := schedule.Build(circuit.QFT(n), schedule.DefaultOptions(n-3))
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New()
	res, err := Run(plan, Options{Ranks: ranks, Init: InitUniform, GatherState: true, Profile: true, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	single := statevec.NewUniform(n)
	if err := plan.Run(single); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Amplitudes, single.Amps) {
		t.Fatal("gathered state differs from Plan.Run")
	}

	counts := map[string]int{}
	for i := range plan.Ops {
		counts[plan.Ops[i].Kind.String()]++
	}
	for _, e := range res.Profile {
		if e.Ops != counts[e.Kind] {
			t.Errorf("profile %q reports %d ops, plan contains %d", e.Kind, e.Ops, counts[e.Kind])
		}
		if e.Ops > 0 && e.Duration <= 0 {
			t.Errorf("profile %q: %d ops took %v", e.Kind, e.Ops, e.Duration)
		}
	}

	var buf bytes.Buffer
	if err := tel.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	runs, ops := 0, 0
	for _, e := range doc.TraceEvents {
		if e.Cat != "stage" || e.Ph != "X" {
			continue
		}
		if e.Name != "run" {
			ops++
			continue
		}
		runs++
		k, _ := e.Args["ops"].(float64)
		if k < 2 {
			t.Fatalf("run span carries ops = %v, want at least 2", e.Args["ops"])
		}
		ops += int(k)
	}
	if runs < ranks {
		t.Errorf("%d run spans over %d ranks: nothing ran blocked", runs, ranks)
	}
	if want := len(plan.Ops) * ranks; ops != want {
		t.Errorf("stage spans account for %d ops, want %d (%d ops x %d ranks)", ops, want, len(plan.Ops), ranks)
	}
}

// TestRanksMakeEqualPassesFromZero runs a plan from |0…0⟩ on four ranks
// with shards of 2^18 amplitudes, above a block: every rank but rank 0
// starts with a shard of zeros, and each still makes every pass of every
// stage, over its populated prefix (schedule.Shard.Exec). The trace counts
// each rank's passes; they are equal, the profile reports that count, and
// it is the count of a run from the uniform state, where no rank holds a
// zero.
func TestRanksMakeEqualPassesFromZero(t *testing.T) {
	const n, ranks = 20, 4
	plan, err := schedule.Build(supremacy(n, 12, 5, false), schedule.DefaultOptions(n-2))
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New()
	res, err := Run(plan, Options{Ranks: ranks, Init: InitZero, Profile: true, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := Run(plan, Options{Ranks: ranks, Init: InitUniform, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.ProfilePasses != uniform.ProfilePasses || res.ProfileRuns != uniform.ProfileRuns {
		t.Errorf("from |0…0⟩ the profile reports %d passes, %d runs; from the uniform state %d, %d",
			res.ProfilePasses, res.ProfileRuns, uniform.ProfilePasses, uniform.ProfileRuns)
	}

	var buf bytes.Buffer
	if err := tel.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Cat string `json:"cat"`
			Ph  string `json:"ph"`
			Pid int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	passes := make([]int, ranks)
	for _, e := range doc.TraceEvents {
		if e.Cat == "stage" && e.Ph == "X" {
			passes[e.Pid]++
		}
	}
	for r, p := range passes {
		if p != res.ProfilePasses {
			t.Errorf("rank %d made %d passes, the profile reports %d (passes per rank %v)", r, p, res.ProfilePasses, passes)
		}
	}
}
