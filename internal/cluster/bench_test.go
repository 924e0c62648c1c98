package cluster

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// benchFleet builds n drifting three-group points of dimension dim and a mask
// with one slot in a hundred absent (nil when masked is false).
func benchFleet(n, dim int, masked bool) (flat []float64, rows [][]float64, present []bool) {
	rng := rand.New(rand.NewPCG(1, 2))
	flat = make([]float64, n*dim)
	rows = make([][]float64, n)
	for i := range rows {
		rows[i] = flat[i*dim : (i+1)*dim]
		for d := range rows[i] {
			rows[i][d] = float64(i%3)*0.3 + 0.02*rng.NormFloat64()
		}
	}
	if masked {
		present = make([]bool, n)
		for i := range present {
			present[i] = i%100 != 50
		}
	}
	return flat, rows, present
}

// benchCases are the warm-path shapes of the two step workloads' trackers.
func benchCases(b *testing.B, run func(b *testing.B, n, dim int, masked bool)) {
	for _, dim := range []int{1, 4} {
		for _, masked := range []bool{false, true} {
			name := fmt.Sprintf("n10000/d%d/all-present", dim)
			if masked {
				name = fmt.Sprintf("n10000/d%d/masked-1pct", dim)
			}
			b.Run(name, func(b *testing.B) { run(b, 10000, dim, masked) })
		}
	}
}

// BenchmarkTrackerUpdate times one warm-started UpdateFlat — the call
// core.System.Step makes per tracker.
func BenchmarkTrackerUpdate(b *testing.B) {
	benchCases(b, func(b *testing.B, n, dim int, masked bool) {
		flat, _, present := benchFleet(n, dim, masked)
		tr, err := NewTracker(Config{K: 3, Incremental: true}, testRNG(1))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := -3; i < b.N; i++ {
			if i == 0 {
				b.ResetTimer()
			}
			if _, _, err := tr.UpdateFlat(flat, n, dim, present); err != nil {
				b.Fatal(err)
			}
		}
		if warm, _ := tr.RefitStats(); warm < b.N {
			b.Fatalf("%d of %d timed steps were warm", warm, b.N)
		}
	})
}

// BenchmarkReferenceTrackerUpdate is the same step through the preserved
// pre-change tracker, so one command prints before and after.
func BenchmarkReferenceTrackerUpdate(b *testing.B) {
	benchCases(b, func(b *testing.B, n, dim int, masked bool) {
		_, rows, present := benchFleet(n, dim, masked)
		tr, err := newReferenceTracker(Config{K: 3, Incremental: true}, testRNG(1))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := -3; i < b.N; i++ {
			if i == 0 {
				b.ResetTimer()
			}
			if _, err := tr.UpdateMasked(rows, present); err != nil {
				b.Fatal(err)
			}
		}
	})
}
