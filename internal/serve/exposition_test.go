package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"dstore/internal/obs"
	"dstore/internal/obs/dtrace"
)

// TestExpositionGolden pins the exact bytes of GET /metrics and GET
// /v1/stats for a server whose every counter, gauge and histogram has
// been set to a fixed value. Any change to metric names, order, types,
// bucket rendering or value formatting shows up as a diff.
//
// Regenerate deliberately with: go test ./internal/serve -run ExpositionGolden -update
func TestExpositionGolden(t *testing.T) {
	s := testServer(t, Options{Workers: 1, QueueDepth: 8}, nil)
	t.Cleanup(s.Close)

	s.cache.mu.Lock()
	s.cache.hits, s.cache.misses, s.cache.evictions = 7, 3, 1
	s.cache.mu.Unlock()
	s.cache.memPut("result-a", []byte("a"))
	s.cache.memPut("result-b", []byte("b"))
	s.snaps.mu.Lock()
	s.snaps.hits, s.snaps.misses, s.snaps.evictions = 5, 2, 0
	s.snaps.mu.Unlock()
	s.snaps.memPut("prefix", []byte("p"))
	for i, c := range []interface{ Store(uint64) }{
		&s.coalesced, &s.rejected, &s.executed, &s.failed, &s.cancelled,
		&s.panicked, &s.chaosFaults, &s.chaosNacks, &s.chaosRetries,
	} {
		c.Store(uint64(10 + i))
	}
	var hists []*obs.Histogram
	for id := obs.HistID(0); id < obs.NumHists; id++ {
		h := obs.NewHistogram(id.String())
		for _, v := range []uint64{0, 1, 19, 20, 587, 1 << 20} {
			h.Observe(v * uint64(id+1))
		}
		hists = append(hists, h)
	}
	s.mergeHists(hists)
	s.histMu.Lock()
	s.queueWait.Observe(1500)
	s.queueWait.Observe(250_000)
	s.histMu.Unlock()
	s.rec.Record(1, dtrace.SpanSimulate, 0, 0, 10, 5, 0)
	s.rec.Record(1, dtrace.SpanCacheLookup, 0, 0, 5, 1, dtrace.FlagHit)

	got := scrapeBoth(t, s.Handler())
	checkGolden(t, filepath.Join("testdata", "exposition.golden"), got)
}

// scrapeBoth concatenates the /metrics and /v1/stats bodies of h.
func scrapeBoth(t *testing.T, h http.Handler) []byte {
	t.Helper()
	var out bytes.Buffer
	for _, path := range []string{"/metrics", "/v1/stats"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: %d: %s", path, rec.Code, rec.Body)
		}
		out.WriteString("== GET " + path + "\n")
		out.Write(rec.Body.Bytes())
		out.WriteString("\n")
	}
	return out.Bytes()
}

// checkGolden compares got against the golden file at path, rewriting
// it under -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("exposition drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
