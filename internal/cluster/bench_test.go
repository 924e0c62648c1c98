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

// benchMovers is the other frame of the drifting case: a copy of flat in
// which one slot in 34 (≈ 3 %, the share that changes stable cluster in a
// step_scalar step) sits at the next group's level. Alternating the two
// frames moves those slots across a cluster boundary every step.
func benchMovers(flat []float64, dim int) (moved []float64, rows [][]float64) {
	moved = append([]float64(nil), flat...)
	rows = make([][]float64, len(flat)/dim)
	for i := range rows {
		rows[i] = moved[i*dim : (i+1)*dim]
		if i%34 == 0 {
			for d := range rows[i] {
				rows[i][d] += float64((i+1)%3-i%3) * 0.3
			}
		}
	}
	return moved, rows
}

// benchCases are the shapes of the step workloads' trackers: the warm path
// (Incremental) at d = 1 and 4, all present (static, and with ≈ 3 % movers
// a step) and with 1 % masked, and the full K-means refit every step at
// d = 1 (ingest_serve's per-resource trackers) and d = 4 (step_joint_d4's
// joint tracker).
func benchCases(b *testing.B, run func(b *testing.B, n, dim int, masked, movers bool, cfg Config)) {
	for _, dim := range []int{1, 4} {
		warm := Config{K: 3, Incremental: true}
		b.Run(fmt.Sprintf("n10000/d%d/all-present", dim), func(b *testing.B) { run(b, 10000, dim, false, false, warm) })
		b.Run(fmt.Sprintf("n10000/d%d/all-present-movers", dim), func(b *testing.B) { run(b, 10000, dim, false, true, warm) })
		b.Run(fmt.Sprintf("n10000/d%d/masked-1pct", dim), func(b *testing.B) { run(b, 10000, dim, true, false, warm) })
		b.Run(fmt.Sprintf("n10000/d%d/full-refit", dim), func(b *testing.B) { run(b, 10000, dim, false, false, Config{K: 3}) })
	}
}

// BenchmarkTrackerUpdate times one UpdateFlat — the call core.System.Step
// makes per tracker — warm-started or, in the full-refit cases, with a
// K-means refit and the eq. (1) means of its clusters.
func BenchmarkTrackerUpdate(b *testing.B) {
	benchCases(b, func(b *testing.B, n, dim int, masked, movers bool, cfg Config) {
		flat, _, present := benchFleet(n, dim, masked)
		frames := [][]float64{flat}
		if movers {
			moved, _ := benchMovers(flat, dim)
			frames = append(frames, moved)
		}
		tr, err := NewTracker(cfg, testRNG(1))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := -3; i < b.N; i++ {
			if i == 0 {
				b.ResetTimer()
			}
			if _, _, err := tr.UpdateFlat(frames[(i+3)%len(frames)], n, dim, present); err != nil {
				b.Fatal(err)
			}
		}
		if warm, _ := tr.RefitStats(); cfg.Incremental && warm < b.N {
			b.Fatalf("%d of %d timed steps were warm", warm, b.N)
		}
	})
}

// BenchmarkReferenceTrackerUpdate is the same step through the preserved
// pre-change tracker, so one command prints before and after.
func BenchmarkReferenceTrackerUpdate(b *testing.B) {
	benchCases(b, func(b *testing.B, n, dim int, masked, movers bool, cfg Config) {
		flat, rows, present := benchFleet(n, dim, masked)
		frames := [][][]float64{rows}
		if movers {
			_, moved := benchMovers(flat, dim)
			frames = append(frames, moved)
		}
		tr, err := newReferenceTracker(cfg, testRNG(1))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := -3; i < b.N; i++ {
			if i == 0 {
				b.ResetTimer()
			}
			if _, err := tr.UpdateMasked(frames[(i+3)%len(frames)], present); err != nil {
				b.Fatal(err)
			}
		}
	})
}
