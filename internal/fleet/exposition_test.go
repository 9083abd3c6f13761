package fleet

import (
	"bytes"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dstore/internal/obs/dtrace"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// fixedScrapes are the /metrics bodies the two fake workers of the
// exposition golden serve: a counter, a gauge, a histogram and a
// labelled series, with different values per worker.
var fixedScrapes = map[string]string{
	"w0": `# TYPE dstore_serve_jobs_executed_total counter
dstore_serve_jobs_executed_total 12345678
# TYPE dstore_serve_inflight_jobs gauge
dstore_serve_inflight_jobs 2
# TYPE dstore_serve_queue_wait_ns histogram
dstore_serve_queue_wait_ns_bucket{le="1023"} 1
dstore_serve_queue_wait_ns_bucket{le="+Inf"} 3
dstore_serve_queue_wait_ns_sum 70000
dstore_serve_queue_wait_ns_count 3
# TYPE obs_spans_recorded_total counter
obs_spans_recorded_total 40
dstore_build_info{version="v1"} 1
`,
	"w1": `# TYPE dstore_serve_jobs_executed_total counter
dstore_serve_jobs_executed_total 4
# TYPE dstore_serve_inflight_jobs gauge
dstore_serve_inflight_jobs 0
# TYPE dstore_serve_queue_wait_ns histogram
dstore_serve_queue_wait_ns_bucket{le="1023"} 2
dstore_serve_queue_wait_ns_bucket{le="+Inf"} 2
dstore_serve_queue_wait_ns_sum 1500.5
dstore_serve_queue_wait_ns_count 2
# TYPE obs_spans_recorded_total counter
obs_spans_recorded_total 2
dstore_build_info{version="v1"} 1
`,
}

// fixedWorker serves one fixed /metrics body.
func fixedWorker(body string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			http.NotFound(w, r)
			return
		}
		_, _ = w.Write([]byte(body))
	})
}

// TestExpositionGolden pins the exact bytes of the coordinator's GET
// /metrics (scalar table, per-worker families, federation of two fixed
// worker scrapes) and GET /v1/stats. The worker states cover a
// fractional hit rate (1/3), a large executed count, a quarantined
// worker and an open breaker.
//
// Regenerate deliberately with: go test ./internal/fleet -run ExpositionGolden -update
func TestExpositionGolden(t *testing.T) {
	ht := handlerTransport{}
	for host, body := range fixedScrapes { //dstore:allow-maprange building a routing table
		ht[host] = fixedWorker(body)
	}
	c, err := New(Options{
		Workers:       []string{"http://w0", "http://w1"},
		Transport:     ht,
		ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	c.reg.recordProbe("http://w0", &workerStats{Inflight: 2, Hits: 1, Misses: 2, Executed: 12_345_678}, true)
	c.reg.recordProbe("http://w1", &workerStats{Inflight: 0, Hits: 0, Misses: 0, Executed: 4}, true)
	for i := 0; i < c.opt.FailureThreshold; i++ {
		c.reg.recordFailure("http://w0")
	}
	c.reg.quarantineWorker("http://w1")
	c.reg.mu.Lock()
	c.reg.probes, c.reg.probeFailures = 9, 1
	c.reg.mu.Unlock()

	c.dispatched.Store(100)
	c.completed.Store(97)
	c.jobsFailed.Store(3)
	c.failovers.Store(4)
	c.retryRounds.Store(2)
	c.shed.Store(1)
	c.corrupt.Store(1)
	c.streamed.Store(95)
	c.sweepsRun.Store(3)
	c.sweepsDone.Store(2)
	c.sweepsDegraded.Store(1)
	c.sweepsResumed.Store(1)
	c.jobsReplayed.Store(6)
	c.journalAppends.Store(103)
	c.traceExports.Store(2)
	c.profileCaps.Store(1)
	c.pending.Store(5)
	c.histMu.Lock()
	for _, v := range []uint64{900, 1024, 70_000, 3_000_000} {
		c.dispatchLat.Observe(v)
	}
	c.histMu.Unlock()
	c.rec.Record(1, dtrace.SpanDispatch, 0, 1, 10, 5, 0)

	var out bytes.Buffer
	for _, path := range []string{"/metrics", "/v1/stats"} {
		rec := httptest.NewRecorder()
		c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: %d: %s", path, rec.Code, rec.Body)
		}
		out.WriteString("== GET " + path + "\n")
		out.Write(rec.Body.Bytes())
		out.WriteString("\n")
	}
	path := filepath.Join("testdata", "exposition.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("exposition drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", path, out.Bytes(), want)
	}
}

// TestWorkerLabelEscaping registers a worker whose URL carries a
// non-ASCII rune (a zero-width space, which normalizeWorkerURL
// accepts) and requires every /metrics line about it — the per-worker
// families and the federated samples alike — to carry the same label,
// escaped per the exposition format: backslash, quote and newline
// only, so the rune passes through as UTF-8 rather than as a Go
// `\u200b` escape no Prometheus parser understands.
func TestWorkerLabelEscaping(t *testing.T) {
	const host = "a\u200b.test:1"
	c, err := New(Options{
		Transport:     handlerTransport{host: fixedWorker(fixedScrapes["w1"])},
		ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/workers",
		strings.NewReader(`{"url":"http://`+host+`"}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/workers: %d: %s", rec.Code, rec.Body)
	}
	rec = httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()

	label := `worker="http://` + host + `"`
	for _, want := range []string{
		"fleet_worker_healthy{" + label + "} ",
		"fleet_worker_executed_total{" + label + "} ",
		"dstore_serve_jobs_executed_total{" + label + "} 4\n",
		`dstore_build_info{version="v1",` + label + "} 1\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
	if strings.Contains(body, `\u200b`) {
		t.Errorf("/metrics carries a Go-quoted label escape:\n%s", body)
	}
	if _, err := dtrace.Parse(body); err != nil {
		t.Errorf("/metrics does not re-parse: %v", err)
	}
}
