package metrics

import (
	"math"
	"sync"
	"testing"
)

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram(ExpBuckets(1, 2, 20)) // 1, 2, 4, ... 2^19
	for v := 1.0; v <= 1000; v++ {
		h.Observe(v)
	}
	if h.Count() != 1000 {
		t.Fatalf("count %d", h.Count())
	}
	if got := h.Mean(); math.Abs(got-500.5) > 1e-9 {
		t.Fatalf("mean %v", got)
	}
	p50 := h.Quantile(0.5)
	if p50 < 250 || p50 > 1000 {
		t.Fatalf("p50 %v outside bucketed range", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < p50 || p99 > 1000 {
		t.Fatalf("p99 %v (p50 %v)", p99, p50)
	}
	if got := h.Quantile(0); got != 1 {
		t.Fatalf("q0 = %v, want min", got)
	}
	if got := h.Quantile(1); got != 1000 {
		t.Fatalf("q1 = %v, want max", got)
	}
}

func TestHistogramEmptyAndSingle(t *testing.T) {
	h := NewHistogram(ExpBuckets(1e-6, 10, 8))
	if h.Quantile(0.5) != 0 || h.Count() != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	h.Observe(0.125)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0.125 {
			t.Fatalf("q%.2f = %v, want the single observation", q, got)
		}
	}
}

// TestHistogramQuantileOnBucketBoundary: when the target rank is exactly
// the count through a bucket, the quantile is that bucket's upper bound,
// not the lower bound of the next non-empty bucket.
func TestHistogramQuantileOnBucketBoundary(t *testing.T) {
	h := NewHistogram([]float64{10, 20, 30})
	for _, v := range []float64{5, 10, 25, 28} {
		h.Observe(v)
	}
	// target = 0.5·4 = 2 = the count of bucket (-inf, 10]; (10, 20] is empty.
	if got := h.Quantile(0.5); got != 10 {
		t.Fatalf("q0.5 = %v, want 10", got)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	h.Observe(100)
	h.Observe(200)
	if got := h.Quantile(0.9); got < 100 || got > 200 {
		t.Fatalf("overflow quantile %v", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(ExpBuckets(1, 2, 16))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(g*1000+i) / 100)
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count %d", h.Count())
	}
}
