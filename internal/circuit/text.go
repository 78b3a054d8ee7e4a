package circuit

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Text serialization in the GRCS-like format used for the Google random
// circuit instances: the first line is the qubit count; every following
// line is "<cycle> <gate> <qubit...>" with optional "(<param>)" for
// parameterized gates. Custom-matrix gates are not representable.

// WriteText serializes c.
func WriteText(w io.Writer, c *Circuit) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, c.N); err != nil {
		return err
	}
	for _, g := range c.Gates {
		if g.Kind == KindUnitary || g.Kind == KindDiag {
			return fmt.Errorf("circuit: cannot serialize custom-matrix gate %v", g)
		}
		name := g.Kind.String()
		if g.Kind == KindRz || g.Kind == KindPhase || g.Kind == KindCPhase {
			name = fmt.Sprintf("%s(%.17g)", name, g.Param)
		}
		qs := make([]string, len(g.Qubits))
		for i, q := range g.Qubits {
			qs[i] = strconv.Itoa(q)
		}
		if _, err := fmt.Fprintf(bw, "%d %s %s\n", g.Cycle, name, strings.Join(qs, " ")); err != nil {
			return err
		}
	}
	return bw.Flush()
}

var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, len(kindNames))
	for k, s := range kindNames {
		m[s] = k
	}
	return m
}()

// ReadText parses the format written by WriteText.
func ReadText(r io.Reader) (*Circuit, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("circuit: empty input")
	}
	n, err := strconv.Atoi(strings.TrimSpace(sc.Text()))
	if err != nil {
		return nil, fmt.Errorf("circuit: bad qubit count: %v", err)
	}
	if n < 1 {
		return nil, fmt.Errorf("circuit: line 1: qubit count must be at least 1, got %d", n)
	}
	c := NewCircuit(n)
	line := 1
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if len(fields) < 3 {
			return nil, fmt.Errorf("circuit: line %d: want '<cycle> <gate> <qubits...>'", line)
		}
		cycle, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("circuit: line %d: bad cycle: %v", line, err)
		}
		name := fields[1]
		param := 0.0
		if i := strings.IndexByte(name, '('); i >= 0 {
			if !strings.HasSuffix(name, ")") {
				return nil, fmt.Errorf("circuit: line %d: unterminated parameter", line)
			}
			param, err = strconv.ParseFloat(name[i+1:len(name)-1], 64)
			if err != nil {
				return nil, fmt.Errorf("circuit: line %d: bad parameter: %v", line, err)
			}
			if math.IsNaN(param) || math.IsInf(param, 0) {
				return nil, fmt.Errorf("circuit: line %d: parameter %v is not a finite number", line, param)
			}
			name = name[:i]
		}
		kind, ok := kindByName[name]
		if !ok {
			return nil, fmt.Errorf("circuit: line %d: unknown gate %q", line, name)
		}
		qubits := make([]int, len(fields)-2)
		for i, f := range fields[2:] {
			qubits[i], err = strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("circuit: line %d: bad qubit %q: %v", line, f, err)
			}
		}
		g := Gate{Kind: kind, Qubits: qubits, Param: param, Cycle: cycle}
		func() {
			defer func() {
				if p := recover(); p != nil {
					err = fmt.Errorf("circuit: line %d: %v", line, p)
				}
			}()
			c.Append(g)
		}()
		if err != nil {
			return nil, err
		}
	}
	return c, sc.Err()
}
