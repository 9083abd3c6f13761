package fleet

import (
	"context"
	"net/http"
	"strings"

	"dstore/internal/obs"
	"dstore/internal/obs/dtrace"
)

// metricView is one read of the coordinator's counters, taken once
// per scrape so every metricTable row sees the same instant.
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
	v := &metricView{c: c}
	c.histMu.Lock()
	v.dispatchLat = c.dispatchLat.Clone()
	c.histMu.Unlock()
	v.healthy, v.workers = c.reg.healthyCount()
	v.probes, v.probeFailures = c.reg.probeCounts()
	v.trips, v.recloses, v.quarantines, v.requalified = c.reg.breakerCounts()
	v.started = c.sweepsRun.Load()
	v.done = c.sweepsDone.Load()
	v.pending = max(c.pending.Load(), 0)
	v.spansRecorded, v.spansDropped = c.rec.Counts()
	return v
}

// metricTable lists every scalar coordinator metric in a fixed order.
// /metrics and /v1/stats both render from it (the same convention as
// internal/serve), so the two views can never disagree on names or
// values.
var metricTable = []dtrace.Metric[*metricView]{
	dtrace.Gauge("fleet_workers", func(v *metricView) int { return v.workers }),
	dtrace.Gauge("fleet_workers_healthy", func(v *metricView) int { return v.healthy }),
	dtrace.Counter("fleet_probes_total", func(v *metricView) uint64 { return v.probes }),
	dtrace.Counter("fleet_probe_failures_total", func(v *metricView) uint64 { return v.probeFailures }),
	dtrace.Counter("fleet_jobs_dispatched_total", func(v *metricView) uint64 { return v.c.dispatched.Load() }),
	dtrace.Counter("fleet_jobs_completed_total", func(v *metricView) uint64 { return v.c.completed.Load() }),
	dtrace.Counter("fleet_jobs_failed_total", func(v *metricView) uint64 { return v.c.jobsFailed.Load() }),
	dtrace.Counter("fleet_dispatch_failovers_total", func(v *metricView) uint64 { return v.c.failovers.Load() }),
	dtrace.Counter("fleet_sweeps_started_total", func(v *metricView) uint64 { return v.started }),
	dtrace.Counter("fleet_sweeps_completed_total", func(v *metricView) uint64 { return v.done }),
	dtrace.Gauge("fleet_sweeps_active", func(v *metricView) uint64 { return v.started - v.done }),
	dtrace.Counter("fleet_sweep_results_streamed_total", func(v *metricView) uint64 { return v.c.streamed.Load() }),
	dtrace.Counter("fleet_dispatch_retry_rounds_total", func(v *metricView) uint64 { return v.c.retryRounds.Load() }),
	dtrace.Counter("fleet_breaker_trips_total", func(v *metricView) uint64 { return v.trips }),
	dtrace.Counter("fleet_breaker_recloses_total", func(v *metricView) uint64 { return v.recloses }),
	dtrace.Gauge("fleet_workers_quarantined", func(v *metricView) int { return v.c.reg.quarantinedCount() }),
	dtrace.Counter("fleet_quarantines_total", func(v *metricView) uint64 { return v.quarantines }),
	dtrace.Counter("fleet_requalified_total", func(v *metricView) uint64 { return v.requalified }),
	dtrace.Counter("fleet_corrupt_results_total", func(v *metricView) uint64 { return v.c.corrupt.Load() }),
	dtrace.Counter("fleet_sweeps_degraded_total", func(v *metricView) uint64 { return v.c.sweepsDegraded.Load() }),
	dtrace.Counter("fleet_sweeps_resumed_total", func(v *metricView) uint64 { return v.c.sweepsResumed.Load() }),
	dtrace.Counter("fleet_jobs_replayed_total", func(v *metricView) uint64 { return v.c.jobsReplayed.Load() }),
	dtrace.Gauge("coord_pending_jobs", func(v *metricView) int64 { return v.pending }),
	dtrace.Counter("coord_shed_total", func(v *metricView) uint64 { return v.c.shed.Load() }),
	dtrace.Counter("coord_journal_appends_total", func(v *metricView) uint64 { return v.c.journalAppends.Load() }),
	dtrace.Counter("coord_journal_errors_total", func(v *metricView) uint64 { return v.c.journalErrors.Load() }),
	dtrace.Counter("fleet_federation_scrapes_total", func(v *metricView) uint64 { return v.c.fedScrapes.Load() }),
	dtrace.Counter("fleet_federation_errors_total", func(v *metricView) uint64 { return v.c.fedErrors.Load() }),
	dtrace.Counter("fleet_trace_exports_total", func(v *metricView) uint64 { return v.c.traceExports.Load() }),
	dtrace.Counter("coord_profile_captures_total", func(v *metricView) uint64 { return v.c.profileCaps.Load() }),
	// The coordinator's span-ring counters use the coord_ prefix — the
	// workers' own obs_spans_* families arrive via federation below,
	// and one exposition must not carry the same family twice.
	dtrace.Counter("coord_spans_recorded_total", func(v *metricView) uint64 { return v.spansRecorded }),
	dtrace.Counter("coord_spans_dropped_total", func(v *metricView) uint64 { return v.spansDropped }),
	dtrace.Histogram("fleet_dispatch_latency_ns", func(v *metricView) *obs.Histogram { return v.dispatchLat }),
}

// workerTable lists the per-worker families, one sample per registered
// worker labelled worker="<url>": health, last-scraped queue depth and
// cache hit rate, cumulative executed jobs, breaker and quarantine.
var workerTable = []dtrace.Metric[workerState]{
	dtrace.Gauge("fleet_worker_healthy", func(st workerState) int { return oneIf(st.Healthy) }),
	dtrace.Gauge("fleet_worker_queue_depth", func(st workerState) uint64 { return st.QueueDepth }),
	dtrace.Gauge("fleet_worker_cache_hit_rate", func(st workerState) float64 { return st.CacheHitRate }),
	dtrace.Counter("fleet_worker_executed_total", func(st workerState) uint64 { return st.Executed }),
	dtrace.Gauge("fleet_worker_breaker_open", func(st workerState) int { return oneIf(st.Breaker != "closed") }),
	dtrace.Gauge("fleet_worker_quarantined", func(st workerState) int { return oneIf(st.Quarantined) }),
}

// oneIf renders a boolean as a 0/1 gauge value.
func oneIf(b bool) int {
	if b {
		return 1
	}
	return 0
}

// handleMetrics implements GET /metrics in the Prometheus text
// exposition format: the scalar table, the per-worker families, then
// the federated worker metrics.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	dtrace.WriteTable(&b, metricTable, c.readMetrics())
	_, states := c.reg.snapshot()
	dtrace.WriteLabelled(&b, workerTable, "worker", states, func(st workerState) string { return st.URL })
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

// handleStats implements GET /v1/stats: the scalar metrics as an
// ordered JSON object (stats.Set's encoding).
func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	b, err := dtrace.StatsSet(metricTable, c.readMetrics()).MarshalJSON()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	_, _ = w.Write(b)
}
