// Command benchjson converts `go test -bench` output on stdin into a JSON
// document on stdout, so benchmark baselines can be committed and diffed
// (see the bench-permute Makefile target, which records the permutation
// pipeline's BENCH_permute.json).
//
// Besides the raw per-benchmark metrics it derives speedups for the
// baseline/optimized pairs the repo's benchmarks use: a ".../inplace"
// leaf is compared against its ".../swapchain" sibling, ".../fused" against
// ".../separate", ".../blocked" against ".../perop", and a kernel-set
// element in the middle of a name, ".../avx512/...", against the same row
// of ".../avx2/...".
//
// With -strict the command exits nonzero when a Benchmark line fails to
// parse or when no benchmarks were parsed at all, so CI catches silently
// broken benchmark output instead of archiving an empty document.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

type benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

type speedup struct {
	Name      string  `json:"name"`
	Optimized string  `json:"optimized"`
	Baseline  string  `json:"baseline"`
	Speedup   float64 `json:"speedup"` // baseline ns/op ÷ optimized ns/op
}

type document struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []benchmark `json:"benchmarks"`
	Speedups   []speedup   `json:"speedups,omitempty"`
}

// cpuSuffix strips the trailing -GOMAXPROCS tag go test appends to names.
var cpuSuffix = regexp.MustCompile(`-\d+$`)

// pairs maps an optimized name element to the baseline sibling it is
// compared against when deriving speedups. A ratio below 1 records an
// overhead (the checkpointed/plain pair: snapshots cost time and the
// recorded factor says how much).
var pairs = map[string]string{
	"inplace":      "swapchain",
	"fused":        "separate",
	"checkpointed": "plain",
	"enabled":      "disabled",
	"prefetch":     "depth0",
	"f32":          "f64",
	"blocked":      "perop",
	"avx512":       "avx2",
}

func main() {
	strict := flag.Bool("strict", false, "exit nonzero on unparsable Benchmark lines or empty input")
	flag.Parse()
	doc := document{Benchmarks: []benchmark{}}
	var badLines int
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			doc.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if len(strings.Fields(line)) == 1 {
				// A lone name line: go test prints the name first and moves
				// the metrics to a new line when the benchmark writes output.
				continue
			}
			if b, ok := parseBenchLine(line); ok {
				doc.Benchmarks = mergeBenchmark(doc.Benchmarks, b)
			} else {
				badLines++
				fmt.Fprintf(os.Stderr, "benchjson: unparsable benchmark line: %q\n", line)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: reading stdin: %v\n", err)
		os.Exit(1)
	}
	if *strict {
		if badLines > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d unparsable Benchmark line(s)\n", badLines)
			os.Exit(1)
		}
		if len(doc.Benchmarks) == 0 {
			fmt.Fprintln(os.Stderr, "benchjson: no benchmarks parsed")
			os.Exit(1)
		}
	}
	doc.Speedups = deriveSpeedups(doc.Benchmarks)
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// parseBenchLine parses "BenchmarkName-8  20  123 ns/op  45.6 MB/s  2.0 x"
// into a benchmark entry: fields after the iteration count come in
// value/unit pairs.
func parseBenchLine(line string) (benchmark, bool) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return benchmark{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return benchmark{}, false
	}
	b := benchmark{
		Name:       cpuSuffix.ReplaceAllString(f[0], ""),
		Iterations: iters,
		Metrics:    map[string]float64{},
	}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return benchmark{}, false
		}
		b.Metrics[f[i+1]] = v
	}
	return b, true
}

// mergeBenchmark folds repeated runs of the same benchmark (from -count N)
// into one entry, keeping the fastest repetition: the workloads are
// deterministic, so the minimum ns/op is the least-interfered-with sample
// and the standard way to suppress scheduler noise in a recorded baseline.
func mergeBenchmark(benchmarks []benchmark, b benchmark) []benchmark {
	for i := range benchmarks {
		if benchmarks[i].Name == b.Name {
			if b.Metrics["ns/op"] < benchmarks[i].Metrics["ns/op"] {
				benchmarks[i] = b
			}
			return benchmarks
		}
	}
	return append(benchmarks, b)
}

// deriveSpeedups compares every benchmark whose name has an element in
// pairs with the benchmark named the same but for that element. The
// speedup is named after what the two share: the prefix when the element is
// the leaf, the name with "*" in the element's place otherwise.
func deriveSpeedups(benchmarks []benchmark) []speedup {
	byName := map[string]benchmark{}
	for _, b := range benchmarks {
		byName[b.Name] = b
	}
	var out []speedup
	for _, b := range benchmarks {
		elems := strings.Split(b.Name, "/")
		for i, elem := range elems {
			baseElem, ok := pairs[elem]
			if !ok || i == 0 {
				continue
			}
			with := func(e string) string {
				c := slices.Clone(elems)
				c[i] = e
				return strings.Join(c, "/")
			}
			base, ok := byName[with(baseElem)]
			if !ok || b.Metrics["ns/op"] == 0 {
				continue
			}
			name := strings.Join(elems[:i], "/")
			if i < len(elems)-1 {
				name = with("*")
			}
			out = append(out, speedup{
				Name:      name,
				Optimized: elem,
				Baseline:  baseElem,
				Speedup:   base.Metrics["ns/op"] / b.Metrics["ns/op"],
			})
		}
	}
	return out
}
