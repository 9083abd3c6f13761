// Command perfbench is the repository's benchmark: it drives the
// simulator, the simulation service and the sweep fleet through their
// public Go APIs, times them from outside, checks every output against
// pinned digests, and prints one JSON result line. See README.md.
//
//	perfbench --workload fig4-seq --seed 1 --seconds 20 --trace 0
//	perfbench compare a.out b.out   # diff two runs' saved stdout
//	perfbench list                  # every metric with its unit
//	perfbench pin                   # regenerate testdata/ digests
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// workload is one input set the benchmark can run. run fills r with
// the operations it attempted and failed and with its metrics.
type workload struct {
	name string
	why  string
	run  func(ctx context.Context, r *runner) error
}

var workloads = []workload{
	{"fig4-seq", "the paper's Fig. 4 sweep, 88 simulations on one goroutine: all host time in the simulator layers", runFig4},
	{"serve-cached", "2 closed-loop clients re-requesting cached specs from dstore-serve: HTTP, JSON, hashing, LRU; no simulation", runServeCached},
	{"fleet-cold", "a 1000-job sweep through the coordinator onto 2 empty workers: dispatch, snapshot restore, store writes, journal", runFleetCold},
	{"fleet-disk", "a 900-job sweep, on one P, onto restarted workers whose answers all come from the disk store: the coordinator path's CPU cost, no simulation", runFleetDisk},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runner carries one run's settings and collects its results.
type runner struct {
	name    string
	seed    int64
	seconds time.Duration
	trace   bool
	root    string // repository root
	work    string // scratch directory, removed at exit
	out     string // where traced runs leave their artifacts

	attempted int
	failed    int
	// failures keeps the first few failure descriptions for stderr.
	failures []string

	metrics map[string]float64
	// notes are workload facts reported beside the metrics: sample
	// counts, workload-named views of the end-to-end numbers, the
	// geomean accuracy, and so on.
	notes map[string]any
	spans *spanLog

	// The traced run's CPU profile covers the workload's timed loop
	// only, between timedStart and timedStop.
	prof    *cpuProfile
	pkgs    map[string]float64
	profErr error
	timed   bool
	peaks   []float64 // MiB, one per unit of work (unitDone)
}

// timedStart marks the start of the workload's timed loop: it starts
// the first unit's memory peak (see unitDone) and, in a traced run, the
// CPU profile. Only the first call acts.
func (r *runner) timedStart() {
	if r.timed {
		return
	}
	r.timed = true
	resetPeak()
	if r.trace {
		r.prof, r.profErr = startProfile(r.artifact("cpu.pprof"))
	}
}

// unitDone records the resident-set peak of the unit of work (a sweep,
// a repetition, a request loop) that just ended and starts the next
// unit's. peak_rss_mb is the median of these peaks: each unit starts
// from a collected heap, so a peak does not depend on when an earlier
// unit's last GC happened to run.
func (r *runner) unitDone() {
	r.peaks = append(r.peaks, peakRSSMiB())
	resetPeak()
}

// resetPeak collects garbage, returns it to the OS and resets the
// process's VmHWM (writing 5 to clear_refs, Linux). Where the reset
// fails, later peaks include earlier ones.
func resetPeak() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// timedStop ends the traced run's profile and folds it by package.
func (r *runner) timedStop(ctx context.Context) {
	if r.prof == nil {
		return
	}
	r.pkgs, r.profErr = r.prof.stop(ctx)
	r.prof = nil
}

func (r *runner) fail(format string, args ...any) { r.failN(1, format, args...) }

// failN counts n failed operations under one description.
func (r *runner) failN(n int, format string, args ...any) {
	r.failed += n
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// artifact names a file the traced run leaves in .bench_build/traces.
func (r *runner) artifact(suffix string) string {
	return filepath.Join(r.out, fmt.Sprintf("%s-seed%d-%s", r.name, r.seed, suffix))
}

func (r *runner) set(name string, v float64) { r.metrics[name] = v }

func (r *runner) note(key string, v any) { r.notes[key] = v }

// deadline reports whether a timed loop that started at start and
// whose last unit took last should stop before another unit: it keeps
// the run within its --seconds budget but always completes one unit.
func (r *runner) deadline(start time.Time, last time.Duration) bool {
	return time.Since(start)+last > r.seconds
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "list":
			listMetrics(os.Stdout)
			return
		case "pin":
			if err := pinMain(); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench pin:", err)
				os.Exit(1)
			}
			return
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "seed for the generated inputs")
	seconds := fs.Int("seconds", 20, "how long to measure")
	trace := fs.Int("trace", 0, "1 for the traced (per-layer) run")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1, --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := execute(context.Background(), w, root, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", w.name, err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(res.report); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(res.line); err != nil {
		os.Exit(1)
	}
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is the line before it: everything needed to compare two runs
// honestly, starting with the machine they ran on.
type report struct {
	Report struct {
		Workload    string                 `json:"workload"`
		Seed        int64                  `json:"seed"`
		Seconds     float64                `json:"seconds"`
		Trace       bool                   `json:"trace"`
		Fingerprint fingerprint            `json:"fingerprint"`
		Metrics     map[string]metricValue `json:"metrics"`
		Notes       map[string]any         `json:"notes"`
		Failures    []string               `json:"failures,omitempty"`
	} `json:"report"`
}

type runResult struct {
	report report
	line   resultLine
}

// execute runs one workload and assembles its two output lines.
func execute(ctx context.Context, w workload, root string, seed int64, seconds time.Duration, trace bool) (*runResult, error) {
	out := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(filepath.Join(out, "work"), 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(filepath.Join(out, "work"), w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	r := &runner{
		name: w.name, seed: seed, seconds: seconds, trace: trace, root: root, work: work,
		out:     filepath.Join(out, "traces"),
		metrics: map[string]float64{},
		notes:   map[string]any{},
	}
	if trace {
		r.spans = newSpanLog()
		if err := runTraced(ctx, w, r); err != nil {
			return nil, err
		}
	} else {
		if err := w.run(ctx, r); err != nil {
			return nil, err
		}
		if len(r.peaks) == 0 {
			r.peaks = append(r.peaks, peakRSSMiB())
		}
		r.set("peak_rss_mb", median(r.peaks))
		r.set("ops_ok_frac", okFrac(r.attempted, r.failed))
	}
	if r.attempted < 1 {
		return nil, fmt.Errorf("no operations attempted")
	}
	for _, msg := range r.failures {
		fmt.Fprintf(os.Stderr, "perfbench %s: FAILED %s\n", w.name, msg)
	}

	defs := endToEnd
	if trace {
		defs = perLayer
	}
	metrics := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok && !trace {
			return nil, fmt.Errorf("workload did not measure %s", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	res := &runResult{line: resultLine{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   metrics,
	}}
	rep := &res.report.Report
	rep.Workload, rep.Seed, rep.Seconds, rep.Trace = w.name, seed, seconds.Seconds(), trace
	rep.Fingerprint = takeFingerprint(root)
	rep.Metrics, rep.Notes, rep.Failures = metrics, r.notes, r.failures
	return res, nil
}

func okFrac(attempted, failed int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(attempted-failed) / float64(attempted)
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return float64(memSysMiB())
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			var kb float64
			if _, err := fmt.Sscan(f[1], &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return float64(memSysMiB())
}

func memSysMiB() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Sys >> 20
}

// percentile returns the nearest-rank q-quantile of xs (0 < q <= 1).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func listMetrics(w io.Writer) {
	fmt.Fprintln(w, "end-to-end (every workload, --trace 0):")
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-30s %-8s %-6s bound %.2f\n", d.Name, d.Unit, d.Better, d.Bound)
	}
	fmt.Fprintln(w, "per-layer (every workload, --trace 1):")
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-30s %-8s %s\n", d.Name, d.Unit, d.Better)
	}
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %-13s %s\n", wl.name, wl.why)
	}
}
