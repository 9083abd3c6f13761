package dtrace

import (
	"slices"
	"strings"
	"testing"
)

// FuzzPromParse fuzzes the exposition parser the coordinator runs on
// every worker scrape. For arbitrary input the parser must not panic,
// and any document it accepts, federated as one worker, must parse
// again into exactly the expected samples: each input sample
// re-labelled with the worker label, plus one unlabelled fleet sum per
// (name, labels) series equal to the sum of that series' input values.
// The seed corpus in testdata/fuzz/FuzzPromParse holds the /metrics
// bodies of the serve and coordinator exposition goldens.
func FuzzPromParse(f *testing.F) {
	f.Add("# TYPE a counter\na 1\na{x=\"y\"} 2.5\n")
	f.Add("a{} 1\nb NaN\nc{le=\"+Inf\"} +Inf\n")
	f.Add("a b{} 1\n")
	f.Add("{x=\"1\"} 1\n")

	const worker = `http://w"0\`
	f.Fuzz(func(t *testing.T, text string) {
		m, err := Parse(text)
		if err != nil {
			return // rejected input; it just must not have panicked
		}
		var b strings.Builder
		WriteFederated(&b, []WorkerMetrics{{Worker: worker, M: m}})
		out, err := Parse(b.String())
		if err != nil {
			t.Fatalf("federated output does not parse: %v\n%s", err, b.String())
		}

		key := func(name, labels string, v float64) string {
			return name + "\xff" + labels + "\xff" + formatValue(v)
		}
		var want []string
		sums := make(map[string]float64)
		var order []Sample
		for _, s := range m.Samples {
			want = append(want, key(s.Name, joinLabels(s.Labels, "worker", worker), s.Value))
			k := s.Name + "\xff" + s.Labels
			if _, ok := sums[k]; !ok {
				order = append(order, s)
			}
			sums[k] += s.Value
		}
		for _, s := range order {
			want = append(want, key(s.Name, s.Labels, sums[s.Name+"\xff"+s.Labels]))
		}
		got := make([]string, 0, len(out.Samples))
		for _, s := range out.Samples {
			got = append(got, key(s.Name, s.Labels, s.Value))
		}
		slices.Sort(want)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("federated samples differ from input:\n got %q\nwant %q\noutput:\n%s", got, want, b.String())
		}
	})
}
