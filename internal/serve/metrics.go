package serve

import (
	"net/http"
	"strings"

	"dstore/internal/obs"
	"dstore/internal/obs/dtrace"
	"dstore/internal/store"
)

// metricView is one read of the server's counters, taken once per
// scrape so every metricTable row sees the same instant.
type metricView struct {
	s                                   *Server
	hits, misses, evictions             uint64
	entries                             int
	snapHits, snapMisses, snapEvictions uint64
	snapEntries                         int
	disk                                store.Stats
	inflight                            int
	spansRecorded, spansDropped         uint64
	hists                               [obs.NumHists]*obs.Histogram
	queueWait                           *obs.Histogram
}

func (s *Server) readMetrics() *metricView {
	v := &metricView{s: s}
	s.histMu.Lock()
	for i, h := range s.aggHists {
		v.hists[i] = h.Clone()
	}
	v.queueWait = s.queueWait.Clone()
	s.histMu.Unlock()
	v.hits, v.misses, v.evictions, v.entries = s.cache.stats()
	if s.snaps != nil {
		v.snapHits, v.snapMisses, v.snapEvictions, v.snapEntries = s.snaps.stats()
	}
	if s.disk != nil {
		v.disk = s.disk.Stats()
	}
	s.mu.Lock()
	v.inflight = len(s.inflight)
	s.mu.Unlock()
	v.spansRecorded, v.spansDropped = s.rec.Counts()
	return v
}

// metricTable lists every exported metric in a fixed order. Both
// /metrics and /v1/stats render from it, so the two views can never
// disagree on names or values.
var metricTable = []dtrace.Metric[*metricView]{
	dtrace.Counter("dstore_serve_cache_hits_total", func(v *metricView) uint64 { return v.hits }),
	dtrace.Counter("dstore_serve_cache_misses_total", func(v *metricView) uint64 { return v.misses }),
	dtrace.Counter("dstore_serve_cache_evictions_total", func(v *metricView) uint64 { return v.evictions }),
	dtrace.Gauge("dstore_serve_cache_entries", func(v *metricView) int { return v.entries }),
	dtrace.Counter("dstore_serve_snapshot_hits_total", func(v *metricView) uint64 { return v.snapHits }),
	dtrace.Counter("dstore_serve_snapshot_misses_total", func(v *metricView) uint64 { return v.snapMisses }),
	dtrace.Counter("dstore_serve_snapshot_evictions_total", func(v *metricView) uint64 { return v.snapEvictions }),
	dtrace.Gauge("dstore_serve_snapshot_entries", func(v *metricView) int { return v.snapEntries }),
	dtrace.Counter("dstore_store_disk_hits_total", func(v *metricView) uint64 { return v.disk.Hits }),
	dtrace.Counter("dstore_store_disk_misses_total", func(v *metricView) uint64 { return v.disk.Misses }),
	dtrace.Counter("dstore_store_disk_writes_total", func(v *metricView) uint64 { return v.disk.Writes }),
	dtrace.Counter("dstore_store_disk_evictions_total", func(v *metricView) uint64 { return v.disk.Evictions }),
	dtrace.Gauge("dstore_store_disk_bytes", func(v *metricView) int64 { return v.disk.Bytes }),
	dtrace.Gauge("dstore_store_disk_entries", func(v *metricView) int { return v.disk.Entries }),
	dtrace.Gauge("dstore_store_corrupt_entries", func(v *metricView) uint64 { return v.disk.Corrupt }),
	dtrace.Counter("dstore_serve_coalesced_total", func(v *metricView) uint64 { return v.s.coalesced.Load() }),
	dtrace.Counter("dstore_serve_rejected_total", func(v *metricView) uint64 { return v.s.rejected.Load() }),
	dtrace.Counter("dstore_serve_jobs_executed_total", func(v *metricView) uint64 { return v.s.executed.Load() }),
	dtrace.Counter("dstore_serve_jobs_failed_total", func(v *metricView) uint64 { return v.s.failed.Load() }),
	dtrace.Counter("dstore_serve_jobs_cancelled_total", func(v *metricView) uint64 { return v.s.cancelled.Load() }),
	dtrace.Counter("dstore_serve_jobs_panicked_total", func(v *metricView) uint64 { return v.s.panicked.Load() }),
	dtrace.Gauge("dstore_serve_inflight_jobs", func(v *metricView) int { return v.inflight }),
	dtrace.Gauge("dstore_serve_queue_capacity", func(v *metricView) int { return v.s.opt.QueueDepth }),
	dtrace.Counter("dstore_chaos_faults_injected_total", func(v *metricView) uint64 { return v.s.chaosFaults.Load() }),
	dtrace.Counter("dstore_coherence_nacks_total", func(v *metricView) uint64 { return v.s.chaosNacks.Load() }),
	dtrace.Counter("dstore_coherence_retries_total", func(v *metricView) uint64 { return v.s.chaosRetries.Load() }),
	dtrace.Histogram("dstore_sim_gpu_load_latency_ticks", func(v *metricView) *obs.Histogram { return v.hists[obs.HistGPULoadLat] }),
	dtrace.Histogram("dstore_sim_cpu_store_latency_ticks", func(v *metricView) *obs.Histogram { return v.hists[obs.HistCPUStoreLat] }),
	dtrace.Histogram("dstore_sim_push_to_first_use_ticks", func(v *metricView) *obs.Histogram { return v.hists[obs.HistPushToUse] }),
	dtrace.Histogram("dstore_serve_queue_wait_ns", func(v *metricView) *obs.Histogram { return v.queueWait }),
	dtrace.Counter("obs_spans_recorded_total", func(v *metricView) uint64 { return v.spansRecorded }),
	dtrace.Counter("obs_spans_dropped_total", func(v *metricView) uint64 { return v.spansDropped }),
}

// handleMetrics implements GET /metrics in the Prometheus text
// exposition format. Histogram metrics are aggregated over every job
// the server has executed.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	dtrace.WriteTable(&b, metricTable, s.readMetrics())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = w.Write([]byte(b.String()))
}

// handleStats implements GET /v1/stats: the same metrics as a JSON
// object (stats.Set's ordered encoding).
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	b, err := dtrace.StatsSet(metricTable, s.readMetrics()).MarshalJSON()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	_, _ = w.Write(b)
}
