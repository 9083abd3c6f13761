package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"time"

	"dstore/internal/bench"
	"dstore/internal/core"
	"dstore/internal/serve"
)

// serveClients is the number of closed-loop clients: the callers of
// the real service (the coordinator, scripts) wait for each reply.
const serveClients = 2

// serveSetups is how many times the service is built and warmed, for a
// steady setup_s median; the last one is measured.
const serveSetups = 5

// serveSlice is the window the timed loop's metrics are taken over.
const serveSlice = time.Second

// cachedSpec is one warmed spec: its request body and the exact reply
// every later request must get.
type cachedSpec struct {
	name   string
	body   []byte
	reply  []byte
	digest string
}

// serveStack is an in-process dstore-serve behind a test listener.
type serveStack struct {
	srv    *serve.Server
	ts     *httptest.Server
	tr     *http.Transport
	client *http.Client
}

func (s *serveStack) close() {
	s.ts.Close()
	s.srv.Close()
	s.tr.CloseIdleConnections()
}

// smallSpecs are the 44 small-input (benchmark, mode) specs.
func smallSpecs() []serve.JobSpec {
	var specs []serve.JobSpec
	for _, code := range bench.Codes() {
		for _, mode := range []core.Mode{core.ModeCCSM, core.ModeDirectStore} {
			specs = append(specs, serve.JobSpec{Bench: code, Mode: mode.String(), Input: bench.Small.String()})
		}
	}
	return specs
}

// post sends one submission and returns status, digest header and body.
func (s *serveStack) post(ctx context.Context, body []byte) (int, string, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.ts.URL+"/v1/runs", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get(serve.ResultDigestHeader), b, err
}

// startServe builds the service over a fresh store and warms it: every
// spec is submitted and re-submitted until the service answers it from
// its cache, and that answer is checked against the pinned digest.
func startServe(ctx context.Context, r *runner, dir string, specs []serve.JobSpec, pins *fig4Pins, parent int) (_ *serveStack, _ []cachedSpec, err error) {
	sp := r.spans.begin("serve.New", parent)
	srv, err := serve.New(serve.Options{Workers: 2, StoreDir: dir})
	r.spans.end(sp)
	if err != nil {
		return nil, nil, err
	}
	st := &serveStack{srv: srv, ts: httptest.NewServer(srv.Handler()), tr: &http.Transport{MaxIdleConnsPerHost: serveClients}}
	st.client = &http.Client{Transport: st.tr}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	sp = r.spans.begin("serve warm-up", parent)
	defer r.spans.end(sp)
	warm := make([]cachedSpec, len(specs))
	for i, spec := range specs {
		body, err := json.Marshal(spec)
		if err != nil {
			return nil, nil, err
		}
		warm[i] = cachedSpec{name: spec.Bench + " " + spec.Input + " " + spec.Mode, body: body}
		if _, _, _, err := st.post(ctx, body); err != nil { // enqueue every job first
			return nil, nil, err
		}
	}
	for i := range warm {
		c := &warm[i]
		r.attempted++
		for {
			code, digest, reply, err := st.post(ctx, c.body)
			if err != nil {
				return nil, nil, err
			}
			if code == http.StatusOK {
				var env struct{ Result json.RawMessage }
				if err := json.Unmarshal(reply, &env); err != nil {
					return nil, nil, fmt.Errorf("%s: %w", c.name, err)
				}
				sum := sha256.Sum256(env.Result)
				c.reply, c.digest = reply, hex.EncodeToString(sum[:])
				if digest != c.digest || pins.digests[c.name] != c.digest {
					r.fail("%s: warm-up result digest %.16s (header %.16s) is not the pinned one", c.name, c.digest, digest)
				}
				break
			}
			if code != http.StatusAccepted {
				return nil, nil, fmt.Errorf("%s: warm-up got %d: %s", c.name, code, reply)
			}
			select {
			case <-ctx.Done():
				return nil, nil, ctx.Err()
			case <-time.After(5 * time.Millisecond):
			}
		}
	}
	return st, warm, nil
}

// runServeCached is the serve-cached workload.
func runServeCached(ctx context.Context, r *runner) error {
	return serveCachedWorkload(ctx, r, smallSpecs())
}

func serveCachedWorkload(ctx context.Context, r *runner, specs []serve.JobSpec) error {
	pins, err := loadFig4Pins()
	if err != nil {
		return err
	}
	var setups []float64
	var st *serveStack
	var warm []cachedSpec
	for i := 0; i < serveSetups; i++ {
		if st != nil {
			st.close()
		}
		root := r.spans.begin("serve setup", 0)
		t0 := time.Now()
		st, warm, err = startServe(ctx, r, filepath.Join(r.work, fmt.Sprintf("serve-%d", i)), specs, pins, root)
		setups = append(setups, time.Since(t0).Seconds())
		r.spans.end(root)
		if err != nil {
			return err
		}
	}
	defer st.close()

	before, err := getStats(ctx, st.client, st.ts.URL)
	if err != nil {
		return err
	}
	// Latencies are kept compactly, by the one-second slice they ended
	// in, so the samples add little to the process's peak memory.
	type clientResult struct {
		slices   [][]float32 // µs
		attempts int
		failed   []string
	}
	results := make([]clientResult, serveClients)
	var wg sync.WaitGroup
	r.timedStart()
	start := time.Now()
	stop := start.Add(r.seconds)
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := &results[c]
			rng := rand.New(rand.NewSource(r.seed*serveClients + int64(c)))
			for time.Now().Before(stop) && ctx.Err() == nil {
				w := &warm[rng.Intn(len(warm))]
				sp := r.spans.begin("POST /v1/runs", 0)
				t0 := time.Now()
				code, digest, reply, err := st.post(ctx, w.body)
				lat := float32(float64(time.Since(t0)) / 1e3)
				k := int(time.Since(start) / serveSlice)
				for len(res.slices) <= k {
					res.slices = append(res.slices, nil)
				}
				res.slices[k] = append(res.slices[k], lat)
				r.spans.end(sp)
				res.attempts++
				switch {
				case err != nil:
					res.failed = append(res.failed, fmt.Sprintf("%s: %v", w.name, err))
				case code != http.StatusOK:
					res.failed = append(res.failed, fmt.Sprintf("%s: status %d", w.name, code))
				case digest != w.digest || !bytes.Equal(reply, w.reply):
					res.failed = append(res.failed, fmt.Sprintf("%s: reply differs from its warm-up reply", w.name))
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	r.timedStop(ctx)
	r.unitDone()
	after, err := getStats(ctx, st.client, st.ts.URL)
	if err != nil {
		return err
	}

	// The metrics are medians over the loop's whole one-second slices:
	// the typical second's throughput and latency percentiles, which a
	// burst of host noise in a few seconds does not move.
	attempts := 0
	for _, res := range results {
		attempts += res.attempts
		for _, f := range res.failed {
			r.fail("%s", f)
		}
	}
	r.attempted += attempts
	var rates, p50s, p99s []float64
	for k := 0; k < int(elapsed/serveSlice); k++ {
		var s []float64
		for _, res := range results {
			if k < len(res.slices) {
				for _, v := range res.slices[k] {
					s = append(s, float64(v))
				}
			}
		}
		rates = append(rates, float64(len(s))/serveSlice.Seconds())
		p50s = append(p50s, percentile(s, 0.50))
		p99s = append(p99s, percentile(s, 0.99))
	}
	if ran := int(after["dstore_serve_jobs_executed_total"] - before["dstore_serve_jobs_executed_total"]); ran > 0 {
		r.failN(ran, "%d simulations ran during the timed requests; every one should be a cache hit", ran)
	}
	r.set("jobs_per_s", median(rates))
	r.set("p50_us", median(p50s))
	r.set("p99_us", median(p99s))
	r.set("setup_s", median(setups))
	r.note("latency_samples", attempts)
	r.note("slices", len(rates))
	r.note("clients", serveClients)
	r.note("whole_loop_jobs_per_s", float64(attempts)/elapsed.Seconds())
	if r.trace {
		hits := after["dstore_serve_cache_hits_total"] - before["dstore_serve_cache_hits_total"]
		misses := after["dstore_serve_cache_misses_total"] - before["dstore_serve_cache_misses_total"]
		r.set("serve.cache_hit_ratio", ratio(hits, hits+misses))
	}
	return nil
}
