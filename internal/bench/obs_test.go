package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"dstore/internal/core"
	"dstore/internal/obs"
)

var updateTraces = flag.Bool("update", false, "rewrite golden trace fixtures from current simulator output")

// fullObs returns an observer with every subsystem enabled, sized so
// the golden fixtures stay reviewable.
func fullObs() *obs.Observer {
	return obs.New(obs.Options{Trace: true, TraceCap: 256, Hist: true, TimeSeries: true, Epoch: 10_000})
}

// TestResultsIdenticalWithTracing is the acceptance guard for the
// observability layer's zero-interference contract: a run with every
// observer subsystem enabled must produce a Result byte-identical to
// the same run with no observer at all.
func TestResultsIdenticalWithTracing(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeCCSM, core.ModeDirectStore} {
		plain, err := Run("MT", mode, Small)
		if err != nil {
			t.Fatalf("plain run (%s): %v", mode, err)
		}
		cfg := core.DefaultConfig(mode)
		cfg.Obs = fullObs()
		traced, err := RunWithConfigContext(context.Background(), "MT", cfg, Small)
		if err != nil {
			t.Fatalf("traced run (%s): %v", mode, err)
		}
		a, _ := json.Marshal(plain)
		b, _ := json.Marshal(traced)
		if !bytes.Equal(a, b) {
			t.Errorf("tracing changed the %s result:\n  off: %s\n   on: %s", mode, a, b)
		}
		if cfg.Obs.Events() == nil {
			t.Errorf("%s: traced run recorded no events", mode)
		}
	}
}

// TestGoldenTraces pins the Chrome trace bytes for the MT/small pair —
// heap (CCSM) against direct store — against fixtures under testdata/.
// Any event reordering, timestamp drift or schema change shows up as a
// byte diff. Regenerate deliberately with:
//
//	go test ./internal/bench -run GoldenTraces -update
func TestGoldenTraces(t *testing.T) {
	for _, tc := range []struct {
		mode core.Mode
		file string
	}{
		{core.ModeCCSM, "trace_mt_small_ccsm.json"},
		{core.ModeDirectStore, "trace_mt_small_ds.json"},
	} {
		cfg := core.DefaultConfig(tc.mode)
		cfg.Obs = fullObs()
		if _, err := RunWithConfigContext(context.Background(), "MT", cfg, Small); err != nil {
			t.Fatalf("MT/%s: %v", tc.mode, err)
		}
		var got bytes.Buffer
		if err := cfg.Obs.WriteTrace(&got); err != nil {
			t.Fatalf("WriteTrace (%s): %v", tc.mode, err)
		}
		// The fixture must round-trip through encoding/json: Perfetto and
		// chrome://tracing both parse it as one JSON object.
		var parsed struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(got.Bytes(), &parsed); err != nil {
			t.Fatalf("trace is not valid JSON (%s): %v", tc.mode, err)
		}
		if len(parsed.TraceEvents) == 0 {
			t.Fatalf("trace has no events (%s)", tc.mode)
		}
		path := filepath.Join("testdata", tc.file)
		if *updateTraces {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %s (%d events)", path, len(parsed.TraceEvents))
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to generate)", err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s drifted from golden fixture %s (%d vs %d bytes); regenerate with -update if intended",
				tc.mode, path, got.Len(), len(want))
		}
	}
}

// TestTraceIdenticalAcrossWorkers runs the same two-job sweep at one
// worker and at eight, each job carrying its own observers, and wants
// the serialized traces byte-identical: worker scheduling must never
// leak into what a run observes.
func TestTraceIdenticalAcrossWorkers(t *testing.T) {
	sweep := func(workers int) [][]byte {
		jobs := []SweepJob{
			{Code: "MT", In: Small, Base: core.DefaultConfig(core.ModeCCSM), DS: core.DefaultConfig(core.ModeDirectStore)},
			{Code: "VA", In: Small, Base: core.DefaultConfig(core.ModeCCSM), DS: core.DefaultConfig(core.ModeDirectStore)},
		}
		var observers []*obs.Observer
		for i := range jobs {
			jobs[i].Base.Obs = fullObs()
			jobs[i].DS.Obs = fullObs()
			observers = append(observers, jobs[i].Base.Obs, jobs[i].DS.Obs)
		}
		if _, _, err := Sweep(context.Background(), jobs, SweepOptions{Workers: workers}); err != nil {
			t.Fatalf("sweep (workers=%d): %v", workers, err)
		}
		var out [][]byte
		for _, o := range observers {
			var buf bytes.Buffer
			if err := o.WriteTrace(&buf); err != nil {
				t.Fatalf("WriteTrace: %v", err)
			}
			out = append(out, buf.Bytes())
		}
		return out
	}
	one := sweep(1)
	eight := sweep(8)
	for i := range one {
		if !bytes.Equal(one[i], eight[i]) {
			t.Errorf("trace %d differs between workers=1 and workers=8 (%d vs %d bytes)",
				i, len(one[i]), len(eight[i]))
		}
	}
}

// TestPushToUseHistogramShift checks the headline observability claim
// on a streaming benchmark: under direct store the CPU pushes lines
// into the GPU L2 before the kernel reads them, so the GPU load-latency
// distribution shifts left against the heap baseline and the
// push-to-first-use histogram actually populates.
func TestPushToUseHistogramShift(t *testing.T) {
	means := make(map[core.Mode]float64)
	var pushHist *obs.Histogram
	for _, mode := range []core.Mode{core.ModeCCSM, core.ModeDirectStore} {
		cfg := core.DefaultConfig(mode)
		cfg.Obs = obs.New(obs.Options{Hist: true})
		if _, err := RunWithConfigContext(context.Background(), "NN", cfg, Small); err != nil {
			t.Fatalf("NN/%s: %v", mode, err)
		}
		h := cfg.Obs.Hist(obs.HistGPULoadLat)
		if h.Count() == 0 {
			t.Fatalf("NN/%s: empty GPU load-latency histogram", mode)
		}
		means[mode] = h.Mean()
		if mode == core.ModeDirectStore {
			pushHist = cfg.Obs.Hist(obs.HistPushToUse)
		}
	}
	if means[core.ModeDirectStore] >= means[core.ModeCCSM] {
		t.Errorf("direct store did not lower mean GPU load latency: DS %.1f vs CCSM %.1f",
			means[core.ModeDirectStore], means[core.ModeCCSM])
	}
	if pushHist.Count() == 0 {
		t.Error("direct-store run recorded no push-to-first-use samples")
	}
}

// TestTimedRunPhases checks the host phase clock plumbing: a counting
// clock yields monotone non-zero phases, and the timed run's Result
// matches the untimed one exactly.
func TestTimedRunPhases(t *testing.T) {
	var fake uint64
	clock := func() uint64 { fake += 7; return fake }
	timed, hp, _, err := run(context.Background(), "MT", core.DefaultConfig(core.ModeCCSM), Small, nil, clock)
	if err != nil {
		t.Fatal(err)
	}
	if hp.SetupNS == 0 || hp.RunNS == 0 || hp.ReportNS == 0 {
		t.Errorf("phase breakdown has zero phases: %+v", hp)
	}
	if hp.Total() != hp.SetupNS+hp.RunNS+hp.ReportNS {
		t.Errorf("Total mismatch: %+v", hp)
	}
	plain, err := Run("MT", core.ModeCCSM, Small)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(timed)
	b, _ := json.Marshal(plain)
	if !bytes.Equal(a, b) {
		t.Errorf("timed run diverged from plain run:\n timed: %s\n plain: %s", a, b)
	}

	// Sweep-level timings arrive per job, in job order.
	jobs := StandardJobs(Small)[:2]
	_, timings, err := Sweep(context.Background(), jobs, SweepOptions{Workers: 1, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	if len(timings) != len(jobs) {
		t.Fatalf("got %d timings for %d jobs", len(timings), len(jobs))
	}
	for i, tm := range timings {
		if tm.Total() == 0 {
			t.Errorf("job %d: zero host time", i)
		}
	}
}
