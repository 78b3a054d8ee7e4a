package circuit

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzReadText checks the circuit text parser never panics, accepts no
// circuit without a qubit and no parameter that is not a finite number, and
// that every successfully parsed
// circuit re-serializes and re-parses to the same gate list.
func FuzzReadText(f *testing.F) {
	var seedBuf bytes.Buffer
	c := Supremacy(SupremacyOptions{Rows: 3, Cols: 3, Depth: 10, Seed: 1})
	if err := WriteText(&seedBuf, c); err != nil {
		f.Fatal(err)
	}
	f.Add(seedBuf.String())
	f.Add("2\n0 h 0\n1 cz 0 1\n")
	f.Add("")
	f.Add("abc")
	f.Add("4\n0 rz(0.5) 3\n")
	f.Add("2\n0 h 99\n")
	f.Add("4\n0 rz(NaN) 3\n")
	f.Add("4\n0 rz(-Inf) 3\n")
	f.Add("0\n")
	f.Add("-3\n")
	f.Fuzz(func(t *testing.T, input string) {
		parsed, err := ReadText(strings.NewReader(input))
		if err != nil {
			return // rejecting is fine; panicking is not
		}
		if parsed.N < 1 {
			t.Fatalf("accepted a %d-qubit circuit", parsed.N)
		}
		for _, g := range parsed.Gates {
			if math.IsNaN(g.Param) || math.IsInf(g.Param, 0) {
				t.Fatalf("accepted a gate with parameter %v", g.Param)
			}
		}
		var out bytes.Buffer
		if err := WriteText(&out, parsed); err != nil {
			return // custom gates are not serializable; none arise here
		}
		again, err := ReadText(&out)
		if err != nil {
			t.Fatalf("re-parse of serialized circuit failed: %v\n%s", err, out.String())
		}
		if again.N != parsed.N || len(again.Gates) != len(parsed.Gates) {
			t.Fatalf("round trip changed the circuit: %d/%d gates", len(parsed.Gates), len(again.Gates))
		}
	})
}
