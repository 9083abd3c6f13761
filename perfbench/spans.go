package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// spanLog records the benchmark's own spans around the public calls it
// makes: name, start, end and the span that caused it. Spans stay in
// memory and are written out when the run ends. A nil *spanLog records
// nothing, so untimed paths and untraced runs share one code path.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	// dropped counts spans not recorded once the log held maxSpans.
	dropped int
}

// maxSpans bounds the log (a few MB of JSON); serve-cached makes one
// span per request.
const maxSpans = 50_000

type span struct {
	ID, Parent int // Parent is 0 for a root span
	Name       string
	Start, End time.Duration // End is -1 while the span is open
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// begin opens a span under parent (0 for none) and returns its ID.
func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return 0
	}
	now := time.Since(l.epoch)
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) >= maxSpans {
		l.dropped++
		return 0
	}
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(l.spans)
}

// end closes span id.
func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	now := time.Since(l.epoch)
	l.mu.Lock()
	l.spans[id-1].End = now
	l.mu.Unlock()
}

// total sums the durations of every closed span called name.
func (l *spanLog) total(name string) time.Duration {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var t time.Duration
	for _, s := range l.spans {
		if s.Name == name && s.End >= 0 {
			t += s.End - s.Start
		}
	}
	return t
}

// open counts spans begun but never ended (a leak in the benchmark).
func (l *spanLog) open() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, s := range l.spans {
		if s.End < 0 {
			n++
		}
	}
	return n
}

// write saves the spans as a Chrome trace-event document (load it in
// Perfetto or chrome://tracing); each event's args carry its span and
// parent IDs.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, 0, len(l.spans))
	for _, s := range l.spans {
		if s.End < 0 {
			continue
		}
		evs = append(evs, event{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: rootOf(l.spans, s),
			Args: map[string]int{"id": s.ID, "parent": s.Parent},
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// rootOf returns the ID of s's root span, which becomes its track.
func rootOf(spans []span, s span) int {
	for s.Parent != 0 {
		s = spans[s.Parent-1]
	}
	return s.ID
}

// dtraceEvent is one event of the fleet's stitched Chrome trace
// (GET /v1/sweeps/{id}/trace).
type dtraceEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   uint64            `json:"ts"`
	Dur  uint64            `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int64             `json:"tid"`
	Args map[string]string `json:"args"`
}

type stitchedTrace struct {
	TraceEvents []dtraceEvent     `json:"traceEvents"`
	OtherData   map[string]string `json:"otherData"`
}

// selfTimeByKind aggregates a stitched fleet trace into self time per
// span kind. Spans of one job (tid), from every process, form one
// tree by interval containment: a span's children are the spans of
// the same job that lie wholly inside it. Self time is the span's
// duration minus the union of its children's intervals. A span that
// only partly overlaps another is not its child and is not
// subtracted. Of two spans with the same interval the one first in
// the trace is the parent.
func selfTimeByKind(events []dtraceEvent) map[string]uint64 {
	type iv struct {
		kind       string
		start, end uint64
		order      int
	}
	byJob := map[int64][]iv{}
	for i, e := range events {
		if e.Ph != "X" {
			continue
		}
		byJob[e.Tid] = append(byJob[e.Tid], iv{e.Name, e.Ts, e.Ts + e.Dur, i})
	}
	self := map[string]uint64{}
	for _, spans := range byJob {
		// Start ascending, longer first, then trace order: every span
		// wholly inside another sorts after it.
		sort.Slice(spans, func(i, j int) bool {
			a, b := spans[i], spans[j]
			if a.start != b.start {
				return a.start < b.start
			}
			if a.end != b.end {
				return a.end > b.end
			}
			return a.order < b.order
		})
		for i, p := range spans {
			var covered, reach uint64
			reach = p.start
			for _, c := range spans[i+1:] {
				if c.start >= p.end {
					break
				}
				if c.end > p.end {
					continue // partial overlap: not a child
				}
				lo, hi := c.start, c.end
				if lo < reach {
					lo = reach
				}
				if hi > lo {
					covered += hi - lo
					reach = hi
				}
			}
			self[p.kind] += (p.end - p.start) - covered
		}
	}
	return self
}

// parseStitched decodes a stitched trace document.
func parseStitched(b []byte) (*stitchedTrace, error) {
	var t stitchedTrace
	if err := json.Unmarshal(b, &t); err != nil {
		return nil, fmt.Errorf("stitched trace: %w", err)
	}
	return &t, nil
}
