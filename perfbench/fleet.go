package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"dstore/internal/fleet"
	"dstore/internal/obs/dtrace"
	"dstore/internal/serve"
)

// The fleet sweep is the multi-process end-to-end test's matrix:
// 4 benchmarks × 5 prefetch depths × 5 warp widths × 10 SM counts.
var (
	fleetBenches  = []string{"MT", "VA", "BL", "NN"}
	fleetPrefetch = []int{0, 1, 2, 3, 4}
	fleetWarps    = []int{4, 8, 12, 16, 24}
	fleetSMs      = []int{2, 4, 6, 8, 10, 12, 14, 16, 18, 20}
)

const fleetWorkers = 2

// fleetSetupProbes is how many extra empty fleets fleet-cold builds and
// tears down, untimed otherwise, in each batch that measures setup_s:
// one batch before the timed loop and one after each sweep.
const fleetSetupProbes = 40

// fleetJobs lists the sweep's 1000 job specs.
func fleetJobs() []serve.JobSpec {
	var out []serve.JobSpec
	for _, b := range fleetBenches {
		for _, p := range fleetPrefetch {
			for _, w := range fleetWarps {
				for _, s := range fleetSMs {
					p, w, s := p, w, s
					out = append(out, serve.JobSpec{Bench: b, Mode: "direct-store", Config: &serve.ConfigOverride{
						PrefetchDepth: &p, MaxWarpsPerSM: &w, SMs: &s,
					}})
				}
			}
		}
	}
	return out
}

// fleetMatrix renders the sweep as a POST /v1/sweeps body, each axis in
// a seed-chosen order (which sets dispatch order and the sweep's ID),
// with SM count drop removed when drop >= 0.
func fleetMatrix(rng *rand.Rand, drop int) ([]byte, int) {
	perm := func(n int) []int { return rng.Perm(n) }
	var benches []string
	for _, i := range perm(len(fleetBenches)) {
		benches = append(benches, fleetBenches[i])
	}
	axis := func(vals []int, skip int) []int {
		var out []int
		for _, i := range perm(len(vals)) {
			if i != skip {
				out = append(out, vals[i])
			}
		}
		return out
	}
	m := map[string]any{
		"bench": benches,
		"mode":  []string{"direct-store"},
		"config": map[string][]int{
			"prefetch_depth":   axis(fleetPrefetch, -1),
			"max_warps_per_sm": axis(fleetWarps, -1),
			"sms":              axis(fleetSMs, drop),
		},
	}
	b, _ := json.Marshal(m) // plain maps and slices always encode
	n := len(fleetBenches) * len(fleetPrefetch) * len(fleetWarps) * len(fleetSMs)
	if drop >= 0 {
		n -= n / len(fleetSMs)
	}
	return b, n
}

// hostRouter sends requests for the fixed worker names to the real
// listener addresses, so ring placement — which hashes worker URLs —
// is the same in every run while requests still cross real HTTP.
type hostRouter struct {
	base  *http.Transport
	hosts map[string]string
}

func (h hostRouter) RoundTrip(req *http.Request) (*http.Response, error) {
	if real, ok := h.hosts[req.URL.Host]; ok {
		req = req.Clone(req.Context())
		req.URL.Host, req.Host = real, real
	}
	return h.base.RoundTrip(req)
}

// fleetStack is one in-process fleet: workers with their own disk
// stores behind test listeners, and a coordinator in front of them.
type fleetStack struct {
	workers []*serve.Server
	wsrv    []*httptest.Server
	coord   *fleet.Coordinator
	csrv    *httptest.Server
	tr      *http.Transport
	client  *http.Client
	// openTimes is how long each worker's serve.New took (it opens
	// and verifies the worker's store).
	openTimes []time.Duration
}

// startFleet builds the stack over the given worker store directories.
func startFleet(r *runner, storeDirs []string, journal string, clock dtrace.Clock, parent int) (*fleetStack, error) {
	st := &fleetStack{tr: &http.Transport{MaxIdleConnsPerHost: 32}}
	st.client = &http.Client{Transport: st.tr}
	router := hostRouter{base: st.tr, hosts: map[string]string{}}
	var urls []string
	for i, dir := range storeDirs {
		name := fmt.Sprintf("worker-%d", i)
		sp := r.spans.begin("serve.New "+name, parent)
		t0 := time.Now()
		w, err := serve.New(serve.Options{Workers: 1, StoreDir: dir, Name: name, Clock: clock})
		st.openTimes = append(st.openTimes, time.Since(t0))
		r.spans.end(sp)
		if err != nil {
			st.close()
			return nil, err
		}
		st.workers = append(st.workers, w)
		srv := httptest.NewServer(w.Handler())
		st.wsrv = append(st.wsrv, srv)
		router.hosts[name] = srv.Listener.Addr().String()
		urls = append(urls, "http://"+name)
	}
	sp := r.spans.begin("fleet.New", parent)
	c, err := fleet.New(fleet.Options{
		Workers: urls, JournalDir: journal, Transport: router,
		Seed: uint64(r.seed), Clock: clock,
	})
	r.spans.end(sp)
	if err != nil {
		st.close()
		return nil, err
	}
	st.coord = c
	st.csrv = httptest.NewServer(c.Handler())
	return st, nil
}

// close stops the coordinator, then the workers (which syncs and closes
// their stores), and waits for all of them.
func (st *fleetStack) close() {
	if st.csrv != nil {
		st.csrv.Close()
	}
	if st.coord != nil {
		st.coord.Close()
	}
	for _, s := range st.wsrv {
		s.Close()
	}
	for _, w := range st.workers {
		w.Close()
	}
	st.tr.CloseIdleConnections()
}

// sweepRun is one streamed sweep as the client saw it.
type sweepRun struct {
	id       string
	outcomes []fleet.Outcome
	arrivals []float64 // µs from the POST to each outcome
	wall     time.Duration
}

// sweep POSTs a matrix and reads the NDJSON stream to its report.
func (st *fleetStack) sweep(ctx context.Context, matrix []byte) (*sweepRun, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, st.csrv.URL+"/v1/sweeps", bytes.NewReader(matrix))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "application/x-ndjson")
	t0 := time.Now()
	resp, err := st.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("POST /v1/sweeps: %s: %s", resp.Status, b)
	}
	run := &sweepRun{id: resp.Header.Get("X-Dstore-Sweep")}
	br := bufio.NewReaderSize(resp.Body, 1<<16)
	for {
		line, err := br.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			var ev struct {
				Event string          `json:"event"`
				Data  json.RawMessage `json:"data"`
			}
			if err := json.Unmarshal(line, &ev); err != nil {
				return nil, fmt.Errorf("sweep stream: %w", err)
			}
			switch ev.Event {
			case "result":
				var o fleet.Outcome
				if err := json.Unmarshal(ev.Data, &o); err != nil {
					return nil, fmt.Errorf("sweep outcome: %w", err)
				}
				run.outcomes = append(run.outcomes, o)
				run.arrivals = append(run.arrivals, float64(time.Since(t0))/1e3)
			case "report":
				run.wall = time.Since(t0)
				return run, nil
			}
		}
		if err != nil {
			return nil, fmt.Errorf("sweep stream ended before its report: %w", err)
		}
	}
}

// check counts each expected job that is missing, failed, answered
// with a result whose digest is not pinned, or (when wantCached)
// simulated instead of served from a cache.
func (run *sweepRun) check(r *runner, pins map[string]string, jobs int, wantCached bool) {
	r.attempted += jobs
	for _, o := range run.outcomes {
		switch {
		case o.Error != "":
			r.fail("job %.16s: %s", o.ID, o.Error)
		case len(o.ID) < 16 || pins[o.ID[:16]] != digest16(o.Result):
			r.fail("job %.16s: result digest %s is not the pinned one", o.ID, digest16(o.Result))
		case wantCached && !o.Cached:
			r.fail("job %.16s: simulated again instead of answered from the store", o.ID)
		}
	}
	if missing := jobs - len(run.outcomes); missing > 0 {
		r.failN(missing, "sweep %.16s: %d of %d outcomes missing", run.id, missing, jobs)
	}
}

// getStats reads a /v1/stats document.
func getStats(ctx context.Context, c *http.Client, url string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m map[string]float64
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("%s/v1/stats: %w", url, err)
	}
	return m, nil
}

// workerStats sums a stats key over the workers.
func (st *fleetStack) workerStats(ctx context.Context) (map[string]float64, error) {
	sum := map[string]float64{}
	for _, s := range st.wsrv {
		m, err := getStats(ctx, st.client, s.URL)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			sum[k] += v
		}
	}
	return sum, nil
}

// fleetTrace fetches the sweep's stitched trace and reports per-kind
// self times, dispatch counts and dropped spans.
func (st *fleetStack) fleetTrace(ctx context.Context, r *runner, run *sweepRun, path string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, st.csrv.URL+"/v1/sweeps/"+run.id+"/trace", nil)
	if err != nil {
		return err
	}
	resp, err := st.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET sweep trace: %s: %s", resp.Status, body)
	}
	if h := resp.Header.Get("X-Dstore-Trace-Errors"); h != "" {
		return fmt.Errorf("sweep trace is missing workers: %s", h)
	}
	if err := os.WriteFile(path, body, 0o644); err != nil {
		return err
	}
	t, err := parseStitched(body)
	if err != nil {
		return err
	}
	self := selfTimeByKind(t.TraceEvents)
	for k := dtrace.SpanKind(0); k < dtrace.NumSpanKinds; k++ {
		r.set("fleet."+k.Name()+"_self_ms", float64(self[k.Name()])/1e6)
	}
	// A dispatch counts as cached when no worker simulated its job. The
	// dispatch span's FlagCached cannot tell: a worker's status poll
	// answers a freshly simulated job from its cache too.
	var attempts uint64
	simulated := map[int64]bool{}
	for _, e := range t.TraceEvents {
		switch {
		case e.Ph != "X":
		case e.Name == dtrace.SpanDispatch.Name():
			attempts++
		case e.Name == dtrace.SpanSimulate.Name():
			simulated[e.Tid] = true
		}
	}
	r.set("fleet.dispatch_attempts", float64(attempts))
	r.set("fleet.cached_dispatch_ratio", ratio(float64(attempts-uint64(len(simulated))), float64(attempts)))
	dropped, _ := strconv.ParseFloat(t.OtherData["dropped"], 64)
	r.set("dtrace.spans_dropped", dropped)

	cs, err := getStats(ctx, st.client, st.csrv.URL)
	if err != nil {
		return err
	}
	r.set("fleet.retries", cs["fleet_dispatch_retry_rounds_total"]+cs["fleet_dispatch_failovers_total"])
	r.note("fleet_trace", path)
	return nil
}

// storeLayers reports the workers' cache and store counters.
func storeLayers(r *runner, ws map[string]float64) {
	r.set("snap.hit_ratio", ratio(ws["dstore_serve_snapshot_hits_total"],
		ws["dstore_serve_snapshot_hits_total"]+ws["dstore_serve_snapshot_misses_total"]))
	r.set("serve.cache_hit_ratio", ratio(ws["dstore_serve_cache_hits_total"],
		ws["dstore_serve_cache_hits_total"]+ws["dstore_serve_cache_misses_total"]))
	r.set("store.disk_writes", ws["dstore_store_disk_writes_total"])
	r.set("store.disk_hits", ws["dstore_store_disk_hits_total"])
}

// ratio is num/den, or 0 when den is 0 (a layer the workload never
// reached).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// wallClock is the span clock the traced run injects into every
// worker and the coordinator: one epoch, so spans from all of them
// nest on one time line.
func wallClock() dtrace.Clock {
	epoch := time.Now()
	return func() uint64 { return uint64(time.Since(epoch)) }
}

func storeDirs(base string) []string {
	var dirs []string
	for i := 0; i < fleetWorkers; i++ {
		dirs = append(dirs, filepath.Join(base, fmt.Sprintf("worker-%d", i)))
	}
	return dirs
}

// runFleetCold is the fleet-cold workload: whole cold sweeps, each on
// a freshly built fleet with empty stores, while the budget lasts.
func runFleetCold(ctx context.Context, r *runner) error {
	pins, err := loadFleetPins()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.seed))
	var clock dtrace.Clock
	if r.trace {
		clock = wallClock()
	}
	setups, err := probeSetups(r, clock)
	if err != nil {
		return err
	}
	var rates, p50s, p99s []float64
	var samples int
	start := time.Now()
	r.timedStart()
	defer r.timedStop(ctx)
	for rep := 0; ; rep++ {
		base := filepath.Join(r.work, fmt.Sprintf("cold-%d", rep))
		root := r.spans.begin("fleet-cold rep", 0)
		t0 := time.Now()
		st, err := startFleet(r, storeDirs(base), filepath.Join(base, "journal"), clock, root)
		if err != nil {
			r.spans.end(root)
			return err
		}
		matrix, n := fleetMatrix(rng, -1)
		sp := r.spans.begin("POST /v1/sweeps", root)
		run, err := st.sweep(ctx, matrix)
		r.spans.end(sp)
		if err == nil {
			run.check(r, pins, n, false)
			rates = append(rates, float64(n)/run.wall.Seconds())
			p50s = append(p50s, percentile(run.arrivals, 0.50))
			p99s = append(p99s, percentile(run.arrivals, 0.99))
			samples += len(run.arrivals)
			if r.trace && rep == 0 {
				err = fleetColdLayers(ctx, r, st, run)
			}
		}
		r.spans.end(root)
		st.close()
		if err != nil {
			return err
		}
		if err := os.RemoveAll(base); err != nil {
			return err
		}
		r.unitDone()
		// A traced run reports no setup_s; there a batch would only
		// add GC cycles to the CPU profile.
		if !r.trace {
			more, err := probeSetups(r, clock)
			if err != nil {
				return err
			}
			setups = append(setups, more...)
		}
		if r.deadline(start, time.Since(t0)) {
			break
		}
	}
	r.set("jobs_per_s", median(rates))
	r.set("p50_us", median(p50s))
	r.set("p99_us", median(p99s))
	r.set("setup_s", median(setups))
	r.note("sweeps", len(rates))
	r.note("jobs_per_sweep", len(fleetJobs()))
	r.note("latency_samples", samples)
	r.note("latency_definition", "time from the sweep POST to each outcome's arrival; percentiles per sweep, median over sweeps")
	r.note("fleet_cold_jobs_per_s", median(rates))
	return nil
}

// probeSetups builds and tears down fleetSetupProbes fleets over the
// same empty stores and journal directory and returns each build's wall
// time in seconds. The directories are made once, untimed, by a first
// build: making a directory on the shared disk took 30–120 µs as the
// host's I/O load changed, which moved a run's median set-up by up to 3×.
// Each timed build starts from a collected heap on one P, so no GC cycle
// or wakeup of an idle P lands inside it. Batches spread over the run
// let the median cover more than one moment of the host's load.
func probeSetups(r *runner, clock dtrace.Clock) ([]float64, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	base := filepath.Join(r.work, "probe")
	dirs, journal := storeDirs(base), filepath.Join(base, "journal")
	var setups []float64
	for i := -1; i < fleetSetupProbes; i++ {
		runtime.GC()
		t0 := time.Now()
		st, err := startFleet(r, dirs, journal, clock, 0)
		if err != nil {
			return nil, err
		}
		if i >= 0 {
			setups = append(setups, time.Since(t0).Seconds())
		}
		st.close()
	}
	return setups, nil
}

func fleetColdLayers(ctx context.Context, r *runner, st *fleetStack, run *sweepRun) error {
	ws, err := st.workerStats(ctx)
	if err != nil {
		return err
	}
	storeLayers(r, ws)
	return st.fleetTrace(ctx, r, run, r.artifact("fleet-trace.json"))
}

// runFleetDisk is the fleet-disk workload. A cold sweep (reported, not
// timed) fills the workers' stores; then, while the budget lasts, the
// workers restart over those stores with empty memory caches, a fresh
// coordinator starts in front of them, and a 900-job sweep over the
// same jobs is timed. Every answer must come from disk.
func runFleetDisk(ctx context.Context, r *runner) error {
	pins, err := loadFleetPins()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.seed))
	var clock dtrace.Clock
	if r.trace {
		clock = wallClock()
	}
	dirs := storeDirs(filepath.Join(r.work, "stores"))

	t0 := time.Now()
	sp := r.spans.begin("fleet-disk populate", 0)
	st, err := startFleet(r, dirs, filepath.Join(r.work, "journal-populate"), clock, sp)
	if err != nil {
		r.spans.end(sp)
		return err
	}
	matrix, n := fleetMatrix(rng, -1)
	run, err := st.sweep(ctx, matrix)
	r.spans.end(sp)
	st.close()
	if err != nil {
		return err
	}
	run.check(r, pins, n, false)
	r.note("populate_s", time.Since(t0).Seconds())

	// The timed loop runs on one P, so jobs_per_s is the inverse of the
	// CPU time one cached job costs across coordinator, HTTP and worker.
	// With two Ps on a two-vCPU shared host it hinges on cross-CPU
	// wakeups instead, and swung by more than 3x between runs as the
	// host's load changed.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r.note("gomaxprocs", 1)

	var rates, setups, opens, p50s, p99s []float64
	var samples int
	start := time.Now()
	r.timedStart()
	defer r.timedStop(ctx)
	for rep := 0; ; rep++ {
		root := r.spans.begin("fleet-disk rep", 0)
		t1 := time.Now()
		st, err := startFleet(r, dirs, filepath.Join(r.work, fmt.Sprintf("journal-%d", rep)), clock, root)
		if err != nil {
			r.spans.end(root)
			return err
		}
		setups = append(setups, time.Since(t1).Seconds())
		for _, d := range st.openTimes {
			opens = append(opens, d.Seconds())
		}
		matrix, n := fleetMatrix(rng, rng.Intn(len(fleetSMs)))
		sp := r.spans.begin("POST /v1/sweeps", root)
		run, err := st.sweep(ctx, matrix)
		r.spans.end(sp)
		var ws map[string]float64
		if err == nil {
			run.check(r, pins, n, true)
			rates = append(rates, float64(n)/run.wall.Seconds())
			p50s = append(p50s, percentile(run.arrivals, 0.50))
			p99s = append(p99s, percentile(run.arrivals, 0.99))
			samples += len(run.arrivals)
			ws, err = st.workerStats(ctx)
		}
		if err == nil {
			if ex := int(ws["dstore_serve_jobs_executed_total"]); ex > 0 {
				r.failN(ex, "restarted workers simulated %d jobs; every answer should come from disk", ex)
			}
			if r.trace && rep == 0 {
				storeLayers(r, ws)
				err = st.fleetTrace(ctx, r, run, r.artifact("fleet-trace.json"))
			}
		}
		r.spans.end(root)
		st.close()
		if err != nil {
			return err
		}
		r.unitDone()
		if r.deadline(start, time.Since(t1)) {
			break
		}
	}
	r.set("jobs_per_s", median(rates))
	r.set("p50_us", median(p50s))
	r.set("p99_us", median(p99s))
	r.set("setup_s", median(setups))
	if r.trace {
		r.set("store.open_s", median(opens))
	}
	r.note("sweeps", len(rates))
	r.note("latency_samples", samples)
	r.note("latency_definition", "time from the sweep POST to each outcome's arrival; percentiles per sweep, median over sweeps")
	r.note("fleet_disk_jobs_per_s", median(rates))
	return nil
}
