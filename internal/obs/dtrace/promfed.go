package dtrace

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"dstore/internal/obs"
	"dstore/internal/stats"
)

// This file is the one place the Prometheus text exposition format is
// written or read: the daemons' metric tables, the coordinator's
// per-worker families, histogram families, and the parser and merger
// behind metrics federation (every worker sample re-labelled with
// worker="<url>", plus an unlabelled fleet-level sum per series).

// Number is the set of value types a Metric row may read.
type Number interface {
	~int | ~int64 | ~uint64 | ~float64
}

// Metric is one row of an exposition table over a view V: a family
// name, its Prometheus type, and how to read the row from a view taken
// once per scrape, so every row of one scrape sees the same instant.
// Build rows with Counter, Gauge and Histogram.
//
// A row keeps two readers of the same value: value, in float64 as the
// exposition format carries it, and count, the exact uint64 /v1/stats
// reports (an integer row converts without rounding; a negative one
// wraps as Go's integer conversion defines).
type Metric[V any] struct {
	name, kind string
	value      func(V) float64
	count      func(V) uint64
	hist       func(V) *obs.Histogram
}

// Counter declares a counter row.
func Counter[V any, N Number](name string, value func(V) N) Metric[V] {
	return scalar(name, "counter", value)
}

// Gauge declares a gauge row.
func Gauge[V any, N Number](name string, value func(V) N) Metric[V] {
	return scalar(name, "gauge", value)
}

func scalar[V any, N Number](name, kind string, value func(V) N) Metric[V] {
	return Metric[V]{
		name:  name,
		kind:  kind,
		value: func(v V) float64 { return float64(value(v)) },
		count: func(v V) uint64 { return uint64(value(v)) },
	}
}

// Histogram declares a histogram row. /metrics renders its cumulative
// buckets; /v1/stats reports its sample count.
func Histogram[V any](name string, hist func(V) *obs.Histogram) Metric[V] {
	return Metric[V]{name: name, kind: "histogram", hist: hist}
}

// read returns the row's exact scalar value: a histogram's sample
// count.
func (m Metric[V]) read(v V) uint64 {
	if m.hist != nil {
		return m.hist(v).Count()
	}
	return m.count(v)
}

// WriteTable renders every row of table, read from v, in table order.
func WriteTable[V any](w io.Writer, table []Metric[V], v V) {
	for _, m := range table {
		if m.hist != nil {
			WriteHistogram(w, m.name, m.hist(v))
			continue
		}
		writeType(w, m.name, m.kind)
		io.WriteString(w, sampleLine(m.name, "", m.value(v)))
	}
}

// StatsSet returns the table read from v as a stats.Set in table
// order, the /v1/stats view of the same rows /metrics renders, so the
// two can never disagree on names or values. Values are exact uint64s
// (a float row truncates toward zero); histograms appear as their
// sample counts, the bucket breakdown being /metrics-only.
func StatsSet[V any](table []Metric[V], v V) *stats.Set {
	set := stats.NewSet()
	for _, m := range table {
		set.Counter(m.name).Add(m.read(v)) //dstore:allow-statskey Prometheus names from the daemons' metric tables
	}
	return set
}

// WriteLabelled renders each row of table as one family with one
// sample per item, labelled label="key(item)", in item order. The rows
// must be counters or gauges.
func WriteLabelled[T any](w io.Writer, table []Metric[T], label string, items []T, key func(T) string) {
	for _, m := range table {
		writeType(w, m.name, m.kind)
		for _, it := range items {
			io.WriteString(w, sampleLine(m.name, joinLabels("", label, key(it)), m.value(it)))
		}
	}
}

// WriteHistogram renders h as one Prometheus histogram family:
// cumulative le-labelled buckets (upper bounds from the log2 bucket
// ranges), the +Inf catch-all, then _sum and _count. A nil or empty
// histogram renders the empty family: +Inf 0, _sum 0, _count 0. The
// overflow bucket (values ≥ 2^63) has no finite upper bound, so its
// observations appear only under +Inf rather than as a spurious
// le="18446744073709551615" series.
func WriteHistogram(w io.Writer, name string, h *obs.Histogram) {
	writeType(w, name, "histogram")
	var cum uint64
	for _, bk := range h.Buckets() {
		if bk.Hi == math.MaxUint64 {
			break // overflow bucket: counted by +Inf below
		}
		cum += bk.Count
		fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, bk.Hi, cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count())
	fmt.Fprintf(w, "%s_sum %d\n", name, h.Sum())
	fmt.Fprintf(w, "%s_count %d\n", name, h.Count())
}

// writeType writes a family's TYPE line.
func writeType(w io.Writer, name, kind string) {
	fmt.Fprintf(w, "# TYPE %s %s\n", name, kind)
}

// sampleLine renders one sample line; labels is a raw label body
// without braces, "" for none.
func sampleLine(name, labels string, v float64) string {
	if labels != "" {
		name += "{" + labels + "}"
	}
	return name + " " + formatValue(v) + "\n"
}

// Sample is one parsed exposition sample.
type Sample struct {
	// Name is the sample name (histogram children keep their _bucket /
	// _sum / _count suffix).
	Name string
	// Labels is the raw label body without braces ("" when absent),
	// e.g. `le="15"`.
	Labels string
	// Value is the parsed sample value.
	Value float64
}

// Metrics is one parsed scrape.
type Metrics struct {
	// Types maps family name to declared type (counter, gauge,
	// histogram, untyped).
	Types map[string]string
	// Samples holds every sample in document order.
	Samples []Sample
}

// Parse reads a Prometheus text exposition document. Unparseable
// sample lines are an error — the fleet only scrapes its own daemons,
// so a malformed line is a bug, not foreign input to tolerate.
func Parse(text string) (*Metrics, error) {
	m := &Metrics{Types: make(map[string]string)}
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 4 && fields[1] == "TYPE" {
				m.Types[fields[2]] = fields[3]
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", ln+1, err)
		}
		m.Samples = append(m.Samples, s)
	}
	return m, nil
}

// parseSample splits `name{labels} value` or `name value`.
func parseSample(line string) (Sample, error) {
	var s Sample
	rest := line
	if i := strings.IndexByte(line, '{'); i >= 0 {
		j := strings.LastIndexByte(line, '}')
		if j < i {
			return s, fmt.Errorf("unbalanced braces in %q", line)
		}
		s.Name = line[:i]
		s.Labels = line[i+1 : j]
		rest = strings.TrimSpace(line[j+1:])
	} else {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return s, fmt.Errorf("want `name value`, got %q", line)
		}
		s.Name = fields[0]
		rest = fields[1]
	}
	if !validName(s.Name) {
		return s, fmt.Errorf("bad metric name in %q", line)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return s, fmt.Errorf("value in %q: %w", line, err)
	}
	s.Value = v
	return s, nil
}

// validName reports whether name matches the exposition format's
// metric-name grammar, [a-zA-Z_:][a-zA-Z0-9_:]*. A name outside it
// (empty, or holding a space or brace) would not survive re-rendering.
func validName(name string) bool {
	for i, c := range name {
		if c != '_' && c != ':' && (c < 'a' || c > 'z') && (c < 'A' || c > 'Z') && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return name != ""
}

// familyOf maps a sample name to its declaring family: histogram
// children (_bucket/_sum/_count with a histogram TYPE for the stem)
// fold into the stem, everything else is its own family.
func familyOf(types map[string]string, name string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		stem, ok := strings.CutSuffix(name, suffix)
		if ok && types[stem] == "histogram" {
			return stem
		}
	}
	return name
}

// WorkerMetrics is one worker's parsed scrape tagged with the label
// value its samples federate under.
type WorkerMetrics struct {
	Worker string
	M      *Metrics
}

// WriteFederated renders the merged fleet view of N worker scrapes.
// For every family (sorted by name): the TYPE line, each worker's
// samples re-labelled with worker="<url>" in caller order, then one
// unlabelled fleet-level sum per (name, labels) series, sorted. The
// caller orders workers (the coordinator sorts by URL), so for a fixed
// set of scrapes the output is deterministic.
func WriteFederated(w io.Writer, workers []WorkerMetrics) {
	type series struct {
		name, labels string
		sum          float64
	}
	families := make(map[string]string)   // family -> type
	byFamily := make(map[string][]string) // family -> rendered worker lines
	aggOrder := make(map[string][]string) // family -> agg keys in order
	agg := make(map[string]*series)       // "name\xfflabels" -> sum
	for _, wm := range workers {
		if wm.M == nil {
			continue
		}
		for name, typ := range wm.M.Types { //dstore:allow-maprange destination is a map keyed identically
			if _, ok := families[name]; !ok {
				families[name] = typ
			}
		}
		for _, s := range wm.M.Samples {
			fam := familyOf(wm.M.Types, s.Name)
			if _, ok := families[fam]; !ok {
				families[fam] = "untyped"
			}
			byFamily[fam] = append(byFamily[fam], sampleLine(s.Name, joinLabels(s.Labels, "worker", wm.Worker), s.Value))
			key := s.Name + "\xff" + s.Labels
			se := agg[key]
			if se == nil {
				se = &series{name: s.Name, labels: s.Labels}
				agg[key] = se
				aggOrder[fam] = append(aggOrder[fam], key)
			}
			se.sum += s.Value
		}
	}
	names := make([]string, 0, len(families))
	for name := range families { //dstore:allow-maprange sorted before use
		names = append(names, name)
	}
	sort.Strings(names)
	for _, fam := range names {
		if len(byFamily[fam]) == 0 {
			continue
		}
		writeType(w, fam, families[fam])
		for _, line := range byFamily[fam] {
			io.WriteString(w, line)
		}
		keys := append([]string(nil), aggOrder[fam]...)
		sort.Strings(keys)
		for _, key := range keys {
			se := agg[key]
			io.WriteString(w, sampleLine(se.name, se.labels, se.sum))
		}
	}
}

// joinLabels appends one label pair to a raw label body.
func joinLabels(labels, key, value string) string {
	pair := key + `="` + escapeLabel(value) + `"`
	if labels == "" {
		return pair
	}
	return labels + "," + pair
}

// escapeLabel escapes a label value per the exposition format:
// backslash, double quote and newline, and nothing else (UTF-8 passes
// through as-is).
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatValue renders integral values without an exponent (counters
// stay exact) and everything else in compact float form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
