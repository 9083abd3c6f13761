// Package benchfmt parses the `go test -bench` text format: the
// benchmark result lines BENCH_sim_engine.txt is made of. It covers
// exactly the subset this repo's tooling needs — one value per
// (benchmark, unit) — so the regression differ (cmd/dstore-benchdiff)
// and the fleet's sweep report (internal/fleet), which renders its
// results in this format and parses them back, agree on what a
// benchmark file says.
package benchfmt

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Entry is one benchmark result line: the benchmark name (with any
// -cpu suffix kept, so GOMAXPROCS variants stay distinct), the
// iteration count, and the measured values keyed by unit ("ns/op",
// "B/op", "allocs/op", or any custom ReportMetric unit).
type Entry struct {
	Name   string
	Iters  uint64
	Values map[string]float64
}

// Value returns the measurement for unit and whether the line carried
// one.
func (e Entry) Value(unit string) (float64, bool) {
	v, ok := e.Values[unit]
	return v, ok
}

// Parse reads benchmark result lines from r, skipping everything else
// (comments, the goos/goarch header, PASS/ok trailers). A line is a
// result when it starts with "Benchmark", has an iteration count, and
// parses as value/unit pairs; malformed Benchmark lines are an error
// rather than silently dropped — a truncated baseline should fail the
// diff, not pass it.
func Parse(r io.Reader) ([]Entry, error) {
	var out []Entry
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		f := strings.Fields(line)
		// A bare "BenchmarkFoo" with no fields is the naming line `go
		// test -list` prints; results have at least name + iters + one
		// value/unit pair.
		if len(f) == 1 {
			continue
		}
		if len(f) < 4 || len(f)%2 != 0 {
			return nil, fmt.Errorf("benchfmt: line %d: malformed result %q", lineNo, line)
		}
		iters, err := strconv.ParseUint(f[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("benchfmt: line %d: bad iteration count %q", lineNo, f[1])
		}
		e := Entry{Name: f[0], Iters: iters, Values: make(map[string]float64)}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchfmt: line %d: bad value %q", lineNo, f[i])
			}
			e.Values[f[i+1]] = v
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// ParseUnique is Parse with a uniqueness requirement on benchmark
// names: a baseline (or generated report) carrying the same name
// twice is ambiguous — which measurement is "the" value? — so it is
// rejected rather than letting the last line silently win.
func ParseUnique(r io.Reader) ([]Entry, error) {
	entries, err := Parse(r)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]int, len(entries))
	for i, e := range entries {
		if prev, dup := seen[e.Name]; dup {
			return nil, fmt.Errorf("benchfmt: duplicate benchmark name %q (results %d and %d)",
				e.Name, prev+1, i+1)
		}
		seen[e.Name] = i
	}
	return entries, nil
}
