package obs

import (
	"math"
	"testing"
)

// TestHistogramMergeEdges covers the merge edges the serve daemon's
// per-job aggregation actually hits: empty sources, empty (including
// zero-value) destinations, single-bucket folds, and the overflow
// bucket for values ≥ 2^63.
func TestHistogramMergeEdges(t *testing.T) {
	obsv := func(vs ...uint64) *Histogram {
		h := NewHistogram("h")
		for _, v := range vs {
			h.Observe(v)
		}
		return h
	}
	tests := []struct {
		name        string
		dst, src    *Histogram
		count, sum  uint64
		min, max    uint64
		wantBuckets int
	}{
		{name: "zero count source is a no-op", dst: obsv(5, 9), src: NewHistogram("h"),
			count: 2, sum: 14, min: 5, max: 9, wantBuckets: 2},
		{name: "empty destination adopts source", dst: NewHistogram("h"), src: obsv(5, 9),
			count: 2, sum: 14, min: 5, max: 9, wantBuckets: 2},
		{name: "zero-value destination adopts source min", dst: &Histogram{}, src: obsv(5, 9),
			count: 2, sum: 14, min: 5, max: 9, wantBuckets: 2},
		{name: "single bucket merges into same bucket", dst: obsv(4), src: obsv(5),
			count: 2, sum: 9, min: 4, max: 5, wantBuckets: 1},
		{name: "max bucket merge", dst: obsv(1 << 63), src: obsv(math.MaxUint64),
			// sum wraps mod 2^64: 2^63 + (2^64-1) ≡ 2^63 - 1
			count: 2, sum: 1<<63 - 1, min: 1 << 63, max: math.MaxUint64, wantBuckets: 1},
		{name: "min does not regress across merges", dst: obsv(3), src: obsv(100),
			count: 2, sum: 103, min: 3, max: 100, wantBuckets: 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tt.dst.Merge(tt.src)
			if got := tt.dst.Count(); got != tt.count {
				t.Fatalf("count = %d, want %d", got, tt.count)
			}
			if got := tt.dst.Sum(); got != tt.sum {
				t.Fatalf("sum = %d, want %d", got, tt.sum)
			}
			if got := tt.dst.Min(); got != tt.min {
				t.Fatalf("min = %d, want %d", got, tt.min)
			}
			if got := tt.dst.Max(); got != tt.max {
				t.Fatalf("max = %d, want %d", got, tt.max)
			}
			if got := len(tt.dst.Buckets()); got != tt.wantBuckets {
				t.Fatalf("buckets = %d, want %d", got, tt.wantBuckets)
			}
		})
	}
}

// TestZeroValueHistogramObserve pins the zero-value min fix: a
// Histogram{} (no NewHistogram sentinel) must still track min.
func TestZeroValueHistogramObserve(t *testing.T) {
	var h Histogram
	h.Observe(7)
	h.Observe(3)
	h.Observe(9)
	if h.Min() != 3 || h.Max() != 9 || h.Count() != 3 {
		t.Fatalf("zero-value histogram min/max/count = %d/%d/%d, want 3/9/3", h.Min(), h.Max(), h.Count())
	}
}

// TestHistogramClone proves a clone is an equal, independent copy and
// that a nil histogram clones to nil.
func TestHistogramClone(t *testing.T) {
	h := NewHistogram("h")
	h.Observe(3)
	h.Observe(700)
	c := h.Clone()
	h.Observe(1 << 40)
	if c.Name() != "h" || c.Count() != 2 || c.Sum() != 703 || c.Min() != 3 || c.Max() != 700 || len(c.Buckets()) != 2 {
		t.Fatalf("clone = count %d sum %d min %d max %d buckets %v", c.Count(), c.Sum(), c.Min(), c.Max(), c.Buckets())
	}
	if (*Histogram)(nil).Clone() != nil {
		t.Fatal("nil histogram cloned to non-nil")
	}
}
