package dist

import (
	"bytes"
	"encoding/json"
	"testing"

	"qusim/internal/schedule"
	"qusim/internal/telemetry"
)

// TestTelemetryProfileCompatible asserts that arming telemetry does not
// change the legacy Result.Profile contract: the same plan profiled with and
// without a telemetry sink yields identical Kind/Ops breakdowns (durations
// are wall-clock and may differ, but both derive from the same single
// clock-read pair per op).
func TestTelemetryProfileCompatible(t *testing.T) {
	c := supremacy(12, 16, 73, false)
	plan, err := schedule.Build(c, schedule.DefaultOptions(10))
	if err != nil {
		t.Fatal(err)
	}

	plain, err := Run(plan, Options{Ranks: 4, Init: InitUniform, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New()
	traced, err := Run(plan, Options{Ranks: 4, Init: InitUniform, Profile: true, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}

	if len(plain.Profile) != len(traced.Profile) {
		t.Fatalf("profile lengths differ: %d vs %d", len(plain.Profile), len(traced.Profile))
	}
	for i := range plain.Profile {
		p, q := plain.Profile[i], traced.Profile[i]
		if p.Kind != q.Kind || p.Ops != q.Ops {
			t.Errorf("profile[%d]: disabled %s/%d vs enabled %s/%d", i, p.Kind, p.Ops, q.Kind, q.Ops)
		}
		if q.Ops > 0 && q.Duration <= 0 {
			t.Errorf("profile[%d] %s: no duration recorded with telemetry on", i, q.Kind)
		}
	}
	if plain.Norm != traced.Norm || plain.Entropy != traced.Entropy {
		t.Errorf("results differ with telemetry: norm %v vs %v, entropy %v vs %v",
			plain.Norm, traced.Norm, plain.Entropy, traced.Entropy)
	}

	// The trace must hold exactly one stage span per plan op per rank, with
	// the op's stage annotated, plus one attempt span per rank.
	var buf bytes.Buffer
	if err := tel.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	stageSpans, attempts := 0, 0
	for _, e := range doc.TraceEvents {
		switch {
		case e.Cat == "stage" && e.Ph == "X":
			stageSpans++
			if _, ok := e.Args["stage"]; !ok {
				t.Fatalf("stage span %q missing stage arg: %v", e.Name, e.Args)
			}
		case e.Cat == "dist" && e.Name == "attempt":
			attempts++
		}
	}
	if want := len(plan.Ops) * 4; stageSpans != want {
		t.Errorf("stage spans = %d, want %d (%d ops x 4 ranks)", stageSpans, want, len(plan.Ops))
	}
	if attempts != 4 {
		t.Errorf("attempt spans = %d, want 4", attempts)
	}
	// The four shards are the state; none is long enough for a 2 MiB page.
	if got, want := tel.Gauge("mem.state_bytes").Value(), int64(16<<plan.N); got != want {
		t.Errorf("mem.state_bytes = %d, want %d", got, want)
	}
	if got := tel.Gauge("mem.huge_bytes").Value(); got != 0 {
		t.Errorf("mem.huge_bytes = %d for 16 KiB shards", got)
	}
}

// TestBaselineTelemetry checks the per-gate reference scheme arms the MPI
// layer: byte counters and the latencies of its one-qubit swaps must appear.
func TestBaselineTelemetry(t *testing.T) {
	c := supremacy(10, 12, 17, false)
	tel := telemetry.New()
	res := perGateRun(t, c, true, false, Options{Ranks: 4, Init: InitUniform, Telemetry: tel})
	if got := tel.Counter("mpi.bytes").Value(); got != res.CommBytes {
		t.Errorf("mpi.bytes counter = %d, Traffic says %d", got, res.CommBytes)
	}
	if tel.Histogram("mpi.group_exchange_ns").Count() == 0 {
		t.Error("no group-exchange latencies recorded")
	}
}
