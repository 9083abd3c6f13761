package obs_test

import (
	"math"
	"strings"
	"testing"

	"dstore/internal/obs"
	"dstore/internal/obs/dtrace"
)

// The Prometheus rendering of a Histogram is dtrace.WriteHistogram, the
// exposition module's histogram writer; its edge cases are pinned here,
// beside the bucket layout they depend on.

// TestWriteProm covers the Prometheus renderer edges: empty
// histograms, the cumulative le series, and the overflow bucket
// folding into +Inf instead of a finite 2^64-1 bound.
func TestWriteProm(t *testing.T) {
	tests := []struct {
		name    string
		h       *obs.Histogram
		want    []string
		notWant []string
	}{
		{
			name: "empty",
			h:    obs.NewHistogram("h"),
			want: []string{
				"# TYPE m histogram\n",
				`m_bucket{le="+Inf"} 0` + "\n",
				"m_sum 0\nm_count 0\n",
			},
		},
		{
			name: "nil",
			h:    nil,
			want: []string{`m_bucket{le="+Inf"} 0` + "\n"},
		},
		{
			name: "cumulative buckets",
			h: func() *obs.Histogram {
				h := obs.NewHistogram("h")
				h.Observe(0) // bucket [0,0]
				h.Observe(3) // bucket [2,3]
				h.Observe(3)
				return h
			}(),
			want: []string{
				`m_bucket{le="0"} 1` + "\n",
				`m_bucket{le="3"} 3` + "\n",
				`m_bucket{le="+Inf"} 3` + "\n",
				"m_sum 6\nm_count 3\n",
			},
		},
		{
			name: "overflow bucket folds into +Inf",
			h: func() *obs.Histogram {
				h := obs.NewHistogram("h")
				h.Observe(5)
				h.Observe(math.MaxUint64)
				return h
			}(),
			want: []string{
				`m_bucket{le="7"} 1` + "\n",
				`m_bucket{le="+Inf"} 2` + "\n",
			},
			notWant: []string{"18446744073709551615"},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var b strings.Builder
			dtrace.WriteHistogram(&b, "m", tt.h)
			out := b.String()
			for _, w := range tt.want {
				if !strings.Contains(out, w) {
					t.Fatalf("output missing %q:\n%s", w, out)
				}
			}
			for _, nw := range tt.notWant {
				if strings.Contains(out, nw) {
					t.Fatalf("output contains %q:\n%s", nw, out)
				}
			}
		})
	}
}
