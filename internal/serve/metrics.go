package serve

import (
	"fmt"
	"net/http"
	"strings"

	"dstore/internal/obs"
	"dstore/internal/stats"
	"dstore/internal/store"
)

// metricView is one read of the server's counters, taken once per
// scrape so every metricDefs row sees the same instant.
type metricView struct {
	s                                   *Server
	hits, misses, evictions             uint64
	entries                             int
	snapHits, snapMisses, snapEvictions uint64
	snapEntries                         int
	disk                                store.Stats
	inflight                            int
	spansRecorded, spansDropped         uint64
	hists                               []*obs.Histogram
	queueWait                           *obs.Histogram
}

func (s *Server) readMetrics() *metricView {
	v := &metricView{s: s, hists: s.histSnapshot(), queueWait: s.queueWaitSnapshot()}
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

// metricDef is one exported metric: its Prometheus name and type and
// how to read it from a view. Counters and gauges read value; a
// histogram reads hist, and /v1/stats reports its sample count.
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

// metricDefs lists every exported metric in a fixed order. Both
// /metrics and /v1/stats render from this table so the two views can
// never disagree on names or values.
var metricDefs = []metricDef{
	{"dstore_serve_cache_hits_total", "counter", func(v *metricView) uint64 { return v.hits }, nil},
	{"dstore_serve_cache_misses_total", "counter", func(v *metricView) uint64 { return v.misses }, nil},
	{"dstore_serve_cache_evictions_total", "counter", func(v *metricView) uint64 { return v.evictions }, nil},
	{"dstore_serve_cache_entries", "gauge", func(v *metricView) uint64 { return uint64(v.entries) }, nil},
	{"dstore_serve_snapshot_hits_total", "counter", func(v *metricView) uint64 { return v.snapHits }, nil},
	{"dstore_serve_snapshot_misses_total", "counter", func(v *metricView) uint64 { return v.snapMisses }, nil},
	{"dstore_serve_snapshot_evictions_total", "counter", func(v *metricView) uint64 { return v.snapEvictions }, nil},
	{"dstore_serve_snapshot_entries", "gauge", func(v *metricView) uint64 { return uint64(v.snapEntries) }, nil},
	{"dstore_store_disk_hits_total", "counter", func(v *metricView) uint64 { return v.disk.Hits }, nil},
	{"dstore_store_disk_misses_total", "counter", func(v *metricView) uint64 { return v.disk.Misses }, nil},
	{"dstore_store_disk_writes_total", "counter", func(v *metricView) uint64 { return v.disk.Writes }, nil},
	{"dstore_store_disk_evictions_total", "counter", func(v *metricView) uint64 { return v.disk.Evictions }, nil},
	{"dstore_store_disk_bytes", "gauge", func(v *metricView) uint64 { return uint64(v.disk.Bytes) }, nil},
	{"dstore_store_disk_entries", "gauge", func(v *metricView) uint64 { return uint64(v.disk.Entries) }, nil},
	{"dstore_store_corrupt_entries", "gauge", func(v *metricView) uint64 { return v.disk.Corrupt }, nil},
	{"dstore_serve_coalesced_total", "counter", func(v *metricView) uint64 { return v.s.coalesced.Load() }, nil},
	{"dstore_serve_rejected_total", "counter", func(v *metricView) uint64 { return v.s.rejected.Load() }, nil},
	{"dstore_serve_jobs_executed_total", "counter", func(v *metricView) uint64 { return v.s.executed.Load() }, nil},
	{"dstore_serve_jobs_failed_total", "counter", func(v *metricView) uint64 { return v.s.failed.Load() }, nil},
	{"dstore_serve_jobs_cancelled_total", "counter", func(v *metricView) uint64 { return v.s.cancelled.Load() }, nil},
	{"dstore_serve_jobs_panicked_total", "counter", func(v *metricView) uint64 { return v.s.panicked.Load() }, nil},
	{"dstore_serve_inflight_jobs", "gauge", func(v *metricView) uint64 { return uint64(v.inflight) }, nil},
	{"dstore_serve_queue_capacity", "gauge", func(v *metricView) uint64 { return uint64(v.s.opt.QueueDepth) }, nil},
	{"dstore_chaos_faults_injected_total", "counter", func(v *metricView) uint64 { return v.s.chaosFaults.Load() }, nil},
	{"dstore_coherence_nacks_total", "counter", func(v *metricView) uint64 { return v.s.chaosNacks.Load() }, nil},
	{"dstore_coherence_retries_total", "counter", func(v *metricView) uint64 { return v.s.chaosRetries.Load() }, nil},
	{"dstore_sim_gpu_load_latency_ticks", "histogram", nil, func(v *metricView) *obs.Histogram { return v.hists[obs.HistGPULoadLat] }},
	{"dstore_sim_cpu_store_latency_ticks", "histogram", nil, func(v *metricView) *obs.Histogram { return v.hists[obs.HistCPUStoreLat] }},
	{"dstore_sim_push_to_first_use_ticks", "histogram", nil, func(v *metricView) *obs.Histogram { return v.hists[obs.HistPushToUse] }},
	{"dstore_serve_queue_wait_ns", "histogram", nil, func(v *metricView) *obs.Histogram { return v.queueWait }},
	{"obs_spans_recorded_total", "counter", func(v *metricView) uint64 { return v.spansRecorded }, nil},
	{"obs_spans_dropped_total", "counter", func(v *metricView) uint64 { return v.spansDropped }, nil},
}

// snapshot materializes the current metric values as a stats.Set in
// metricDefs order. Histogram metrics appear as their sample counts —
// the full bucket breakdown is a /metrics-only rendering.
func (s *Server) snapshot() *stats.Set {
	v := s.readMetrics()
	set := stats.NewSet()
	for _, d := range metricDefs {
		set.Counter(d.name).Add(d.read(v)) //dstore:allow-statskey Prometheus names from metricDefs
	}
	return set
}

// handleMetrics implements GET /metrics in the Prometheus text
// exposition format. Counter and gauge metrics render one sample each;
// histogram metrics render the full cumulative bucket series plus
// _sum and _count, aggregated over every job the server has executed.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	v := s.readMetrics()
	var b strings.Builder
	for _, d := range metricDefs {
		if d.hist != nil {
			d.hist(v).WriteProm(&b, d.name)
			continue
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n%s %d\n", d.name, d.kind, d.name, d.value(v))
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = w.Write([]byte(b.String()))
}

// handleStats implements GET /v1/stats: the same metrics as a JSON
// object (stats.Set's ordered encoding).
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	b, err := s.snapshot().MarshalJSON()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	_, _ = w.Write(b)
}
