package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestFoldRaw(t *testing.T) {
	f, err := os.Open("testdata/pprof_raw.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := foldRaw(f)
	if err != nil {
		t.Fatal(err)
	}
	// Each sample is charged to its leaf location's innermost function.
	want := map[string]float64{
		"dstore/internal/bench": 0.3, // inlined into serve, still bench's
		"dstore/internal/serve": 0.1,
		"runtime":               0.2,
		"?":                     0.1, // unsymbolized
		"sync/atomic":           0.3, // type arguments hold slashes
	}
	if len(got) != len(want) {
		t.Fatalf("packages %v, want %v", got, want)
	}
	for pkg, w := range want {
		if math.Abs(got[pkg]-w) > 1e-12 {
			t.Errorf("share of %s = %v, want %v", pkg, got[pkg], w)
		}
	}
	shares := bucketShares(got)
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("bucketed shares sum to %v", sum)
	}
	if math.Abs(shares["serve.self_share"]-0.1) > 1e-12 || math.Abs(shares["runtime.self_share"]-0.2) > 1e-12 ||
		math.Abs(shares["other.self_share"]-0.7) > 1e-12 {
		t.Errorf("buckets %v", shares)
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"dstore/internal/cache.(*Cache).Lookup":                    "dstore/internal/cache",
		"runtime.mallocgc":                                         "runtime",
		"net/http.(*conn).serve":                                   "net/http",
		"crypto/internal/fips140/sha256.blockAMD64":                "crypto/internal/fips140/sha256",
		"slices.SortFunc[go.shape.[]encoding/json.field,go.shape]": "slices",
		"dstore/internal/fleet.(*Coordinator).runSweep.func1":      "dstore/internal/fleet",
		"?": "?",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestBucketSyscallBeforeRuntime(t *testing.T) {
	got := bucketShares(map[string]float64{"internal/runtime/syscall": 0.5, "internal/runtime/maps": 0.5})
	if got["syscall.self_share"] != 0.5 || got["runtime.self_share"] != 0.5 {
		t.Errorf("buckets %v", got)
	}
}

func TestSelfTimeByKind(t *testing.T) {
	x := func(name string, tid int64, ts, dur uint64) dtraceEvent {
		return dtraceEvent{Name: name, Ph: "X", Ts: ts, Dur: dur, Tid: tid}
	}
	events := []dtraceEvent{
		{Name: "process_name", Ph: "M"},
		// Job 0: dispatch [0,100) holds queue-wait [10,40) and simulate
		// [30,70), which overlap each other; simulate holds snapshot
		// [35,45). The union of dispatch's children is [10,70).
		x("dispatch", 0, 0, 100),
		x("queue-wait", 0, 10, 30),
		x("simulate", 0, 30, 40),
		x("snapshot", 0, 35, 10),
		// verify [90,120) only partly overlaps dispatch: not a child.
		x("verify", 0, 90, 30),
		// Job 1: two spans with one interval — the first is the parent.
		x("dispatch", 1, 0, 50),
		x("simulate", 1, 0, 50),
		// Job 0's spans never cover job 1's and vice versa.
		x("journal-append", 1, 60, 5),
	}
	got := selfTimeByKind(events)
	want := map[string]uint64{
		"dispatch":       40 + 0, // 100-60, then 50-50
		"queue-wait":     30,     // the overlapping sibling is not its child
		"simulate":       30 + 50,
		"snapshot":       10,
		"verify":         30,
		"journal-append": 5,
	}
	if len(got) != len(want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self time of %s = %d, want %d", k, got[k], v)
		}
	}
}

// benchmarkJSON is the repository-root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricJSON `json:"end_to_end"`
	PerLayer []metricJSON `json:"per_layer"`
}

type metricJSON struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func loadBenchmarkJSON(t *testing.T) *benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	return &bj
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	check := func(kind string, got []metricJSON, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(want))
		}
		for i := 0; i < len(got) && i < len(want); i++ {
			g, w := got[i], want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, code %+v", kind, i, g, w)
			}
			if (g.Bound != nil) != (w.Bound != 0) || (g.Bound != nil && *g.Bound != w.Bound) {
				t.Errorf("%s %s: bound differs from the code's %v", kind, g.Name, w.Bound)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	for _, d := range perLayer {
		if strings.HasSuffix(d.Name, ".self_share") {
			found := d.Name == "other.self_share"
			for _, b := range shareBuckets {
				found = found || b.metric == d.Name
			}
			if !found {
				t.Errorf("%s has no package bucket", d.Name)
			}
		}
	}
}

// smoke runs a cut-down workload through execute and checks that its
// result line is correct and names exactly BENCHMARK.json's metrics.
func smoke(t *testing.T, name string, trace bool, run func(context.Context, *runner) error) *runResult {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	w.run = run
	res, err := execute(context.Background(), w, "..", 1, time.Second, trace)
	if err != nil {
		t.Fatal(err)
	}
	if !res.line.Correct || res.line.Failed != 0 || res.line.Attempted < 1 {
		t.Fatalf("result %+v; failures %v", res.line, res.report.Report.Failures)
	}
	bj := loadBenchmarkJSON(t)
	defs := bj.EndToEnd
	if trace {
		defs = bj.PerLayer
	}
	var want, got []string
	for _, d := range defs {
		want = append(want, d.Name)
	}
	for n := range res.line.Metrics {
		got = append(got, n)
	}
	sort.Strings(want)
	sort.Strings(got)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("printed metrics\n%v\nBENCHMARK.json\n%v", got, want)
	}
	for n, m := range res.line.Metrics {
		if !trace && m.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v; must never be 0", n, m.Value)
		}
	}
	return res
}

func TestSmokeFig4(t *testing.T) {
	var jobs []simJob
	for _, j := range fig4Jobs() {
		if j.code == "MT" || j.code == "NN" {
			jobs = append(jobs, j)
		}
	}
	smoke(t, "fig4-seq", false, func(ctx context.Context, r *runner) error { return fig4Workload(ctx, r, jobs) })
}

func TestSmokeServeCached(t *testing.T) {
	specs := smallSpecs()[:4]
	run := func(ctx context.Context, r *runner) error { return serveCachedWorkload(ctx, r, specs) }
	smoke(t, "serve-cached", false, run)

	res := smoke(t, "serve-cached", true, run)
	var sum float64
	for n, m := range res.line.Metrics {
		if strings.HasSuffix(n, ".self_share") {
			sum += m.Value
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("self shares sum to %v", sum)
	}
	for _, n := range []string{"cache.lookup_hit_ns", "mmu.translate_walk_ns", "dram.row_miss_ns",
		"interconnect.xbar_send_ns", "sim.schedule_step_ns", "store.put_ms", "store.get_us",
		"store.wal_append_ms", "serve.spec_id_ns", "serve.encode_result_ns", "snap.restore_ms",
		"serve.cache_hit_ratio", "dtrace.trace_overhead"} {
		if res.line.Metrics[n].Value <= 0 {
			t.Errorf("traced run left %s at %v", n, res.line.Metrics[n].Value)
		}
	}
}

func TestSmokeFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two 1000-job sweeps")
	}
	smoke(t, "fleet-cold", false, runFleetCold)
	smoke(t, "fleet-disk", false, runFleetDisk)
}

func TestCompareWarnsAcrossMachines(t *testing.T) {
	var a, b report
	a.Report.Fingerprint = fingerprint{CPUModel: "cpu A", NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0"}
	b.Report.Fingerprint = a.Report.Fingerprint
	a.Report.Metrics = map[string]metricValue{"jobs_per_s": {Value: 10, Unit: "jobs/s"}}
	b.Report.Metrics = map[string]metricValue{"jobs_per_s": {Value: 11, Unit: "jobs/s"}}
	var out strings.Builder
	writeComparison(&out, &a, &b)
	if strings.Contains(out.String(), "WARNING") || !strings.Contains(out.String(), "+10.00%") {
		t.Errorf("same machine:\n%s", out.String())
	}
	b.Report.Fingerprint.NProc = 8
	out.Reset()
	writeComparison(&out, &a, &b)
	if !strings.Contains(out.String(), "DIFFERENT MACHINES") {
		t.Errorf("different machines, no warning:\n%s", out.String())
	}
}
