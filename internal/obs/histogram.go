package obs

import (
	"math"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// DefBuckets are general-purpose request-latency bucket bounds in seconds,
// matching the Prometheus client default.
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// StepBuckets are bucket bounds (seconds) sized for pipeline step sub-phases
// and persistence writes, which run from microseconds on a quiet fleet to
// seconds under retraining.
var StepBuckets = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, .01, .025, .05, .1, .25, .5, 1, 2.5,
}

// Histogram counts observations into fixed buckets by upper bound, plus a
// running sum and count. It is safe for concurrent use: every field is
// atomic. An exposition pass reads a best-effort point-in-time snapshot;
// with observations in flight the cumulative bucket lines can lead _count by
// at most the number of concurrent observers, and they agree exactly
// whenever the histogram is quiescent.
type Histogram struct {
	upper   []float64 // sorted finite upper bounds
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// NewHistogramBuckets builds a histogram from the given finite upper bounds.
// Bounds are sorted and deduplicated; non-finite bounds are dropped (a +Inf
// overflow bucket is always present implicitly). Passing no usable bounds
// panics — a histogram with only +Inf is a counter, use one.
func NewHistogramBuckets(bounds []float64) *Histogram {
	upper := make([]float64, 0, len(bounds))
	for _, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			continue
		}
		upper = append(upper, b)
	}
	sort.Float64s(upper)
	dedup := upper[:0]
	for i, b := range upper {
		if i == 0 || b != upper[i-1] {
			dedup = append(dedup, b)
		}
	}
	if len(dedup) == 0 {
		panic("obs: histogram needs at least one finite bucket bound")
	}
	return &Histogram{upper: dedup, buckets: make([]atomic.Uint64, len(dedup)+1)}
}

// Observe records one value. NaN and infinite observations are dropped so a
// poisoned measurement can never leak into the exposition.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	// Binary search for the first bound >= v; the slice is small enough that
	// this is a handful of compares.
	i := sort.SearchFloat64s(h.upper, v)
	h.buckets[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	h.count.Add(1)
}

// ObserveSince records the seconds elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0).Seconds()) }

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Sum returns the sum of recorded observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// snapshot reads per-bucket (non-cumulative) counts, the sum, and the total.
func (h *Histogram) snapshot() (counts []uint64, sum float64, count uint64) {
	counts = make([]uint64, len(h.buckets))
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
	}
	return counts, h.Sum(), h.count.Load()
}

// appendProm appends the histogram's cumulative bucket, sum, and count
// lines to b. It loads the buckets, then the sum, then the count, as
// snapshot does.
func (h *Histogram) appendProm(b []byte, name string) []byte {
	cum := uint64(0)
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		b = append(b, name...)
		b = append(b, "_bucket{le="...)
		// A finite bound renders as digits, '.', 'e', '+' and '-', which %q
		// quotes as they are.
		b = append(b, '"')
		if i < len(h.upper) {
			b = appendValue(b, h.upper[i])
		} else {
			b = append(b, "+Inf"...)
		}
		b = append(b, `"} `...)
		b = strconv.AppendUint(b, cum, 10)
		b = append(b, '\n')
	}
	sum, count := h.Sum(), h.count.Load()
	b = append(b, name...)
	b = append(b, "_sum "...)
	b = appendValue(b, sum)
	b = append(b, '\n')
	b = append(b, name...)
	b = append(b, "_count "...)
	b = strconv.AppendUint(b, count, 10)
	return append(b, '\n')
}
