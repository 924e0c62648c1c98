package obs

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestHistogramBucketBoundaries is the bucket-boundary property test: for
// randomized bounds and observations, every value lands in the first bucket
// whose upper bound is >= the value (boundary values inclusive, Prometheus
// le semantics), cumulative bucket counts are non-decreasing, the +Inf
// bucket equals the total count, and the sum matches.
func TestHistogramBucketBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		nb := 1 + rng.Intn(8)
		bounds := make([]float64, nb)
		for i := range bounds {
			bounds[i] = math.Round(rng.Float64()*1000) / 100 // 0.00 .. 10.00
		}
		h := NewHistogramBuckets(bounds)

		want := make([]uint64, len(h.upper)+1)
		var wantSum float64
		n := 1 + rng.Intn(200)
		for i := 0; i < n; i++ {
			var v float64
			switch rng.Intn(3) {
			case 0: // exactly on a boundary — the inclusive-upper edge case
				v = h.upper[rng.Intn(len(h.upper))]
			case 1: // above every bound — overflow bucket
				v = h.upper[len(h.upper)-1] + 1 + rng.Float64()
			default:
				v = rng.Float64() * 12
			}
			h.Observe(v)
			wantSum += v
			// Independent oracle: first bucket with v <= upper bound,
			// spelled as a linear scan rather than the search the
			// implementation uses.
			idx := len(h.upper)
			for bi, ub := range h.upper {
				if v <= ub {
					idx = bi
					break
				}
			}
			want[idx]++
		}

		counts, sum, count := h.snapshot()
		if count != uint64(n) {
			t.Fatalf("trial %d: count = %d, want %d", trial, count, n)
		}
		if math.Abs(sum-wantSum) > 1e-9*math.Max(1, math.Abs(wantSum)) {
			t.Fatalf("trial %d: sum = %v, want %v", trial, sum, wantSum)
		}
		var total uint64
		for i, c := range counts {
			if c != want[i] {
				t.Fatalf("trial %d: bucket %d = %d, want %d (bounds %v)",
					trial, i, c, want[i], h.upper)
			}
			total += c
		}
		if total != count {
			t.Fatalf("trial %d: buckets sum to %d, count %d", trial, total, count)
		}

		// Boundary inclusivity, directly: an observation equal to bound i
		// must count at le=bound i, not the next bucket up.
		fresh := NewHistogramBuckets(h.upper)
		fresh.Observe(fresh.upper[0])
		c2, _, _ := fresh.snapshot()
		if c2[0] != 1 {
			t.Fatalf("trial %d: boundary value escaped its bucket: %v", trial, c2)
		}
	}
}

// TestHistogramRejectsNonFinite pins the no-NaN-leakage contract at the
// observation door.
func TestHistogramRejectsNonFinite(t *testing.T) {
	h := NewHistogramBuckets([]float64{1})
	h.Observe(math.NaN())
	h.Observe(math.Inf(1))
	h.Observe(math.Inf(-1))
	h.Observe(0.5)
	if h.count.Load() != 1 || h.Sum() != 0.5 {
		t.Fatalf("non-finite observations leaked: count=%d sum=%v", h.count.Load(), h.Sum())
	}
	var sb strings.Builder
	r := NewRegistry()
	r.Histogram("orcf_nf_seconds", "h", h)
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "NaN") || strings.Contains(sb.String(), "Inf ") {
		t.Fatalf("exposition leaked a non-finite value:\n%s", sb.String())
	}
}

// TestHistogramBucketHygiene pins bound sanitation: unsorted, duplicate, and
// non-finite bounds collapse to a sorted finite set.
func TestHistogramBucketHygiene(t *testing.T) {
	h := NewHistogramBuckets([]float64{5, 1, 5, math.Inf(1), math.NaN(), 2})
	want := []float64{1, 2, 5}
	if len(h.upper) != len(want) {
		t.Fatalf("bounds = %v, want %v", h.upper, want)
	}
	for i := range want {
		if h.upper[i] != want[i] {
			t.Fatalf("bounds = %v, want %v", h.upper, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("all-non-finite bounds did not panic")
		}
	}()
	NewHistogramBuckets([]float64{math.NaN()})
}
