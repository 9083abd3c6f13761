package fleet

import (
	"context"
	"fmt"
	"net/http"
	"strings"

	"dstore/internal/obs"
	"dstore/internal/obs/dtrace"
	"dstore/internal/stats"
)

// metricView is one read of the coordinator's counters, taken once
// per scrape so every metricDefs row sees the same instant.
type metricView struct {
	c                                         *Coordinator
	healthy, workers                          int
	probes, probeFailures                     uint64
	trips, recloses, quarantines, requalified uint64
	started, done                             uint64
	pending                                   int64
	spansRecorded, spansDropped               uint64
	dispatchLat                               *obs.Histogram
}

func (c *Coordinator) readMetrics() *metricView {
	v := &metricView{c: c, dispatchLat: c.dispatchLatSnapshot()}
	v.healthy, v.workers = c.reg.healthyCount()
	v.probes, v.probeFailures = c.reg.probeCounts()
	v.trips, v.recloses, v.quarantines, v.requalified = c.reg.breakerCounts()
	v.started = c.sweepsRun.Load()
	v.done = c.sweepsDone.Load()
	v.pending = max(c.pending.Load(), 0)
	v.spansRecorded, v.spansDropped = c.rec.Counts()
	return v
}

// metricDef is one scalar coordinator metric: its Prometheus name and
// type and how to read it from a view. Counters and gauges read value;
// the histogram reads hist, and /v1/stats reports its sample count.
type metricDef struct {
	name, kind string
	value      func(v *metricView) uint64
	hist       func(v *metricView) *obs.Histogram
}

func (d metricDef) read(v *metricView) uint64 {
	if d.hist != nil {
		return d.hist(v).Count()
	}
	return d.value(v)
}

// metricDefs lists every scalar coordinator metric in a fixed order.
// /metrics and /v1/stats both render from this table (the same
// convention as internal/serve), so the two views can never disagree
// on names or values.
var metricDefs = []metricDef{
	{"fleet_workers", "gauge", func(v *metricView) uint64 { return uint64(v.workers) }, nil},
	{"fleet_workers_healthy", "gauge", func(v *metricView) uint64 { return uint64(v.healthy) }, nil},
	{"fleet_probes_total", "counter", func(v *metricView) uint64 { return v.probes }, nil},
	{"fleet_probe_failures_total", "counter", func(v *metricView) uint64 { return v.probeFailures }, nil},
	{"fleet_jobs_dispatched_total", "counter", func(v *metricView) uint64 { return v.c.dispatched.Load() }, nil},
	{"fleet_jobs_completed_total", "counter", func(v *metricView) uint64 { return v.c.completed.Load() }, nil},
	{"fleet_jobs_failed_total", "counter", func(v *metricView) uint64 { return v.c.jobsFailed.Load() }, nil},
	{"fleet_dispatch_failovers_total", "counter", func(v *metricView) uint64 { return v.c.failovers.Load() }, nil},
	{"fleet_sweeps_started_total", "counter", func(v *metricView) uint64 { return v.started }, nil},
	{"fleet_sweeps_completed_total", "counter", func(v *metricView) uint64 { return v.done }, nil},
	{"fleet_sweeps_active", "gauge", func(v *metricView) uint64 { return v.started - v.done }, nil},
	{"fleet_sweep_results_streamed_total", "counter", func(v *metricView) uint64 { return v.c.streamed.Load() }, nil},
	{"fleet_dispatch_retry_rounds_total", "counter", func(v *metricView) uint64 { return v.c.retryRounds.Load() }, nil},
	{"fleet_breaker_trips_total", "counter", func(v *metricView) uint64 { return v.trips }, nil},
	{"fleet_breaker_recloses_total", "counter", func(v *metricView) uint64 { return v.recloses }, nil},
	{"fleet_workers_quarantined", "gauge", func(v *metricView) uint64 { return uint64(v.c.reg.quarantinedCount()) }, nil},
	{"fleet_quarantines_total", "counter", func(v *metricView) uint64 { return v.quarantines }, nil},
	{"fleet_requalified_total", "counter", func(v *metricView) uint64 { return v.requalified }, nil},
	{"fleet_corrupt_results_total", "counter", func(v *metricView) uint64 { return v.c.corrupt.Load() }, nil},
	{"fleet_sweeps_degraded_total", "counter", func(v *metricView) uint64 { return v.c.sweepsDegraded.Load() }, nil},
	{"fleet_sweeps_resumed_total", "counter", func(v *metricView) uint64 { return v.c.sweepsResumed.Load() }, nil},
	{"fleet_jobs_replayed_total", "counter", func(v *metricView) uint64 { return v.c.jobsReplayed.Load() }, nil},
	{"coord_pending_jobs", "gauge", func(v *metricView) uint64 { return uint64(v.pending) }, nil},
	{"coord_shed_total", "counter", func(v *metricView) uint64 { return v.c.shed.Load() }, nil},
	{"coord_journal_appends_total", "counter", func(v *metricView) uint64 { return v.c.journalAppends.Load() }, nil},
	{"coord_journal_errors_total", "counter", func(v *metricView) uint64 { return v.c.journalErrors.Load() }, nil},
	{"fleet_federation_scrapes_total", "counter", func(v *metricView) uint64 { return v.c.fedScrapes.Load() }, nil},
	{"fleet_federation_errors_total", "counter", func(v *metricView) uint64 { return v.c.fedErrors.Load() }, nil},
	{"fleet_trace_exports_total", "counter", func(v *metricView) uint64 { return v.c.traceExports.Load() }, nil},
	{"coord_profile_captures_total", "counter", func(v *metricView) uint64 { return v.c.profileCaps.Load() }, nil},
	// The coordinator's span-ring counters use the coord_ prefix — the
	// workers' own obs_spans_* families arrive via federation below,
	// and one exposition must not carry the same family twice.
	{"coord_spans_recorded_total", "counter", func(v *metricView) uint64 { return v.spansRecorded }, nil},
	{"coord_spans_dropped_total", "counter", func(v *metricView) uint64 { return v.spansDropped }, nil},
	{"fleet_dispatch_latency_ns", "histogram", nil, func(v *metricView) *obs.Histogram { return v.dispatchLat }},
}

// snapshot materializes the scalar metrics as a stats.Set in
// metricDefs order.
func (c *Coordinator) snapshot() *stats.Set {
	v := c.readMetrics()
	set := stats.NewSet()
	for _, d := range metricDefs {
		set.Counter(d.name).Add(d.read(v)) //dstore:allow-statskey Prometheus names from metricDefs
	}
	return set
}

// handleMetrics implements GET /metrics in the Prometheus text
// exposition format: the scalar table, then per-worker gauges
// labelled by worker URL (health, last-scraped queue depth and cache
// hit rate, cumulative executed jobs).
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	v := c.readMetrics()
	var b strings.Builder
	for _, d := range metricDefs {
		if d.hist != nil {
			d.hist(v).WriteProm(&b, d.name)
			continue
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n%s %d\n", d.name, d.kind, d.name, d.value(v))
	}
	_, states := c.reg.snapshot()
	perWorker := []struct {
		name, kind string
		value      func(workerState) string
	}{
		{"fleet_worker_healthy", "gauge", func(st workerState) string {
			if st.Healthy {
				return "1"
			}
			return "0"
		}},
		{"fleet_worker_queue_depth", "gauge", func(st workerState) string {
			return fmt.Sprintf("%d", st.QueueDepth)
		}},
		{"fleet_worker_cache_hit_rate", "gauge", func(st workerState) string {
			return fmt.Sprintf("%g", st.CacheHitRate)
		}},
		{"fleet_worker_executed_total", "counter", func(st workerState) string {
			return fmt.Sprintf("%d", st.Executed)
		}},
		{"fleet_worker_breaker_open", "gauge", func(st workerState) string {
			if st.Breaker != "closed" {
				return "1"
			}
			return "0"
		}},
		{"fleet_worker_quarantined", "gauge", func(st workerState) string {
			if st.Quarantined {
				return "1"
			}
			return "0"
		}},
	}
	for _, m := range perWorker {
		fmt.Fprintf(&b, "# TYPE %s %s\n", m.name, m.kind)
		for _, st := range states {
			fmt.Fprintf(&b, "%s{worker=%q} %s\n", m.name, st.URL, m.value(st))
		}
	}
	c.writeFederation(r, &b, states)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = w.Write([]byte(b.String()))
}

// writeFederation scrapes every registered worker's /metrics and
// re-exports the union: each worker's samples labelled worker="url",
// plus an unlabelled fleet-level sum per series (histograms federate
// at the bucket level, so the summed series is itself a valid
// histogram). Workers that fail to answer within the federation
// timeout are skipped and counted in fleet_federation_errors_total —
// a partial federation beats a stalled scrape. Scrape order is the
// registry's sorted-URL order, so the rendering is deterministic in
// the fleet membership.
func (c *Coordinator) writeFederation(r *http.Request, b *strings.Builder, states []workerState) {
	var workers []dtrace.WorkerMetrics
	for _, st := range states {
		c.fedScrapes.Add(1)
		//dstore:allow-wallclock federation deadline is operational
		ctx, cancel := context.WithTimeout(r.Context(), c.opt.FederationTimeout)
		code, _, body, err := c.do(ctx, http.MethodGet, st.URL+"/metrics", nil)
		cancel()
		if err != nil || code != http.StatusOK {
			c.fedErrors.Add(1)
			continue
		}
		m, err := dtrace.Parse(string(body))
		if err != nil {
			c.fedErrors.Add(1)
			continue
		}
		workers = append(workers, dtrace.WorkerMetrics{Worker: st.URL, M: m})
	}
	dtrace.WriteFederated(b, workers)
}

// dispatchLatSnapshot clones the dispatch-latency histogram under its
// lock so rendering never races concurrent dispatches.
func (c *Coordinator) dispatchLatSnapshot() *obs.Histogram {
	out := obs.NewHistogram("fleet_dispatch_latency_ns")
	c.histMu.Lock()
	out.Merge(c.dispatchLat)
	c.histMu.Unlock()
	return out
}

// handleStats implements GET /v1/stats: the scalar metrics as an
// ordered JSON object (stats.Set's encoding).
func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	b, err := c.snapshot().MarshalJSON()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	_, _ = w.Write(b)
}
