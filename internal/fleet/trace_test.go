package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"dstore/internal/obs/dtrace"
	"dstore/internal/serve"
)

// getTrace fetches the stitched Chrome trace for a sweep and requires
// it to re-parse as JSON.
func getTrace(t *testing.T, base, sweepID string) []byte {
	t.Helper()
	code, b := getBody(t, base+"/v1/sweeps/"+sweepID+"/trace")
	if code != http.StatusOK {
		t.Fatalf("trace export: %d: %s", code, b)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
		OtherData   map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("stitched trace is not valid JSON: %v\n%s", err, b)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatalf("stitched trace has no events:\n%s", b)
	}
	return b
}

func TestSweepTraceUnknownSweep404(t *testing.T) {
	base, _ := startCoord(t, Options{Workers: []string{"http://127.0.0.1:1"}})
	code, _ := getBody(t, base+"/v1/sweeps/no-such-sweep/trace")
	if code != http.StatusNotFound {
		t.Fatalf("unknown sweep trace: %d, want 404", code)
	}
}

// TestSweepSSEReplayKeepsTraceStable reconnects a finished sweep's
// stream — SSE with Last-Event-ID and NDJSON from zero — and requires
// the replay to neither duplicate nor renumber outcomes, and the
// stitched trace export to stay byte-identical: replaying history is a
// read, not a re-dispatch, so it must not record new spans.
func TestSweepSSEReplayKeepsTraceStable(t *testing.T) {
	w1 := startWorker(t, serve.Options{Name: "worker-0"})
	w2 := startWorker(t, serve.Options{Name: "worker-1"})
	base, _ := startCoord(t, Options{Workers: []string{w1, w2}, SweepWorkers: 4})

	results, report, sweepID := runSweepNDJSON(t, base, sweepMatrix)
	if report == nil || report.Failed != 0 || len(results) != 4 {
		t.Fatalf("sweep: %d results, report %+v", len(results), report)
	}
	total := len(results)
	for i, o := range results {
		if o.Seq != i {
			t.Fatalf("result %d streamed with seq %d", i, o.Seq)
		}
		if o.Trace == "" || o.Trace != results[0].Trace {
			t.Fatalf("result %d trace id %q, want every outcome under %q", i, o.Trace, results[0].Trace)
		}
	}
	trace1 := getTrace(t, base, sweepID)

	// SSE reconnect as a client that saw everything up to seq total-3:
	// exactly the last two results replay, each keeping its original id.
	req, err := http.NewRequest(http.MethodGet, base+"/v1/sweeps/"+sweepID+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	req.Header.Set("Last-Event-ID", strconv.Itoa(total-3))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	ids, events := parseSSE(t, resp)
	if want := []int{total - 2, total - 1}; fmt.Sprint(ids) != fmt.Sprint(want) {
		t.Fatalf("SSE resume ids = %v, want %v", ids, want)
	}
	if len(events) == 0 || events[len(events)-1] != "report" {
		t.Fatalf("SSE resume events = %v, want trailing report", events)
	}

	// Full NDJSON replay: byte-identical outcomes, same seqs, same
	// trace ids — nothing renumbered, nothing doubled.
	replay, rep2, _ := runSweepNDJSON(t, base, sweepMatrix)
	if rep2 == nil || len(replay) != total {
		t.Fatalf("replay: %d results, report %+v", len(replay), rep2)
	}
	for i, o := range replay {
		if o.Seq != i || o.ID != results[i].ID || o.Trace != results[i].Trace ||
			!bytes.Equal(o.Result, results[i].Result) {
			t.Fatalf("replayed seq %d diverged from the original stream", i)
		}
	}

	// The replays above were pure reads: the span ring must not have
	// moved, so the export is byte-identical.
	trace2 := getTrace(t, base, sweepID)
	if !bytes.Equal(trace1, trace2) {
		t.Fatalf("trace export changed after stream replay:\n%s\nvs\n%s", trace1, trace2)
	}
}

// handlerTransport routes requests for fixed fake hosts straight into
// in-process handlers, so worker URLs — and with them ring placement
// and trace process rows — are identical across runs and stacks.
type handlerTransport map[string]http.Handler

func (ht handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := ht[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("no route to %q", req.URL.Host)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// obsStack is one complete in-process fleet: two single-threaded
// workers behind fixed fake URLs and a serial coordinator, all on
// injected step clocks.
type obsStack struct {
	base  string
	coord *Coordinator
	ht    handlerTransport
}

func startObsStack(t *testing.T) *obsStack {
	t.Helper()
	ht := handlerTransport{}
	for i, host := range []string{"w0", "w1"} {
		srv, err := serve.New(serve.Options{
			Workers: 1,
			Name:    fmt.Sprintf("worker-%d", i),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			_ = srv.Shutdown(ctx)
		})
		ht[host] = srv.Handler()
	}
	c, err := New(Options{
		Workers:       []string{"http://w0", "http://w1"},
		Transport:     ht,
		SweepWorkers:  1,
		ProbeInterval: time.Hour,
		PollInterval:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		hs.Close()
		c.Close()
	})
	return &obsStack{base: hs.URL, coord: c, ht: ht}
}

// TestStitchedTraceByteDeterminism runs the same sweep on two isolated
// stacks — fixed worker URLs, serial dispatch, step clocks — and
// requires the two stitched trace exports to be byte-identical, with
// spans from the coordinator and both worker processes under one trace
// ID. This is the acceptance bar for the whole tracing layer: any
// nondeterminism in span recording, merging or rendering shows up as a
// byte diff here. Each stack's federated /metrics must also sum the
// workers' own scrapes.
func TestStitchedTraceByteDeterminism(t *testing.T) {
	matrix := `{"bench":["MT","VA","BL"],"mode":["direct-store"],"config":{"prefetch_depth":[0,2]}}`
	var traces [][]byte
	var workerSets []map[string]bool
	var traceID string
	for run := 0; run < 2; run++ {
		s := startObsStack(t)
		results, report, sweepID := runSweepNDJSON(t, s.base, matrix)
		if report == nil || report.Failed != 0 || len(results) != 6 {
			t.Fatalf("run %d: %d results, report %+v", run, len(results), report)
		}
		byWorker := map[string]bool{}
		for _, o := range results {
			if o.Trace == "" {
				t.Fatalf("run %d: job %.8s outcome carries no trace id", run, o.ID)
			}
			byWorker[o.Worker] = true
		}
		traceID = results[0].Trace
		workerSets = append(workerSets, byWorker)
		traces = append(traces, getTrace(t, s.base, sweepID))
		checkFederation(t, s)
	}
	if len(workerSets[0]) < 2 {
		t.Fatalf("ring placed all 6 jobs on one worker: %v", workerSets[0])
	}
	if !bytes.Equal(traces[0], traces[1]) {
		t.Fatalf("stitched traces differ between identical runs:\n%s\nvs\n%s", traces[0], traces[1])
	}

	// Both worker processes and the coordinator appear in the export.
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Pid  int               `json:"pid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
		OtherData map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(traces[0], &doc); err != nil {
		t.Fatal(err)
	}
	if got := doc.OtherData["trace"]; got != traceID {
		t.Fatalf("stitched trace id %q, want the outcomes' %q", got, traceID)
	}
	processes := map[int]string{}
	spans := map[int]int{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			processes[ev.Pid] = ev.Args["name"]
		case "X":
			spans[ev.Pid]++
		}
	}
	withSpans := map[string]int{}
	for pid, name := range processes { //dstore:allow-maprange order folds into a set
		withSpans[name] = spans[pid]
	}
	for _, name := range []string{"coordinator", "worker-0", "worker-1"} {
		if withSpans[name] == 0 {
			t.Fatalf("no spans from process %q in stitched trace (got %v)", name, withSpans)
		}
	}
}

// checkFederation scrapes both workers directly and the coordinator's
// federated /metrics, and requires the unlabelled fleet aggregate of
// each family that moved during the sweep to equal the per-worker sum.
func checkFederation(t *testing.T, s *obsStack) {
	t.Helper()
	scrape := func(c *http.Client, url string) *dtrace.Metrics {
		resp, err := c.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %v: %s", url, resp.StatusCode, err, b)
		}
		m, err := dtrace.Parse(string(b))
		if err != nil {
			t.Fatalf("parse %s: %v", url, err)
		}
		return m
	}
	unlabelled := func(m *dtrace.Metrics, name string) (float64, bool) {
		for _, smp := range m.Samples {
			if smp.Name == name && smp.Labels == "" {
				return smp.Value, true
			}
		}
		return 0, false
	}
	direct := &http.Client{Transport: s.ht}
	workers := []*dtrace.Metrics{scrape(direct, "http://w0/metrics"), scrape(direct, "http://w1/metrics")}
	fed := scrape(http.DefaultClient, s.base+"/metrics")
	for _, name := range []string{
		"dstore_serve_jobs_executed_total",
		"dstore_serve_cache_misses_total",
		"obs_spans_recorded_total",
		"dstore_serve_queue_wait_ns_count",
	} {
		var sum float64
		for _, m := range workers {
			v, _ := unlabelled(m, name)
			sum += v
		}
		got, ok := unlabelled(fed, name)
		if !ok {
			t.Fatalf("federated /metrics has no fleet aggregate for %s", name)
		}
		if got != sum || sum == 0 {
			t.Fatalf("federated %s = %g, per-worker sum = %g (want equal and non-zero)", name, got, sum)
		}
	}
}
