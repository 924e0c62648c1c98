package kmeans

import (
	"math/rand/v2"
	"testing"

	"orcf/internal/trace"
)

// traceFrames packs every step of a synthetic trace.Generate fleet into flat
// row-major n×d frames — the shape cluster.Tracker hands to RunFlat.
func traceFrames(tb testing.TB, n, d, steps int) [][]float64 {
	tb.Helper()
	ds, err := trace.Generate(trace.GeneratorConfig{
		Name: "kmeans-bench", Nodes: n, Steps: steps, Resources: d, Seed: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	frames := make([][]float64, steps)
	for s, step := range ds.Data {
		flat := make([]float64, 0, n*d)
		for _, row := range step {
			flat = append(flat, row...)
		}
		frames[s] = flat
	}
	return frames
}

// BenchmarkRunFlat is one full K=3 refit per op on a long-lived Runner, at
// the two shapes the repository benchmark reaches RunFlat with — the joint
// d=4 fleet of step_joint_d4 and the scalar per-resource fleet of
// ingest_serve — and at d=2 between them. Besides ns/op it reports the time
// per point-iteration (n × Lloyd iterations, so a change in the iteration
// count does not pass for a change in speed) and the share of
// point-iterations that reached a full K-way scan (the pruning).
func BenchmarkRunFlat(b *testing.B) {
	for _, tc := range []struct {
		name string
		n, d int
	}{
		{"N=10000-d4", 10000, 4},
		{"N=10000-d2", 10000, 2},
		{"N=4096-d1", 4096, 1},
	} {
		b.Run(tc.name, func(b *testing.B) {
			frames := traceFrames(b, tc.n, tc.d, 24)
			r := NewRunner()
			rng := rand.New(rand.NewPCG(1, 2))
			assign := make([]int, tc.n)
			pointIters, scans := 0, 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := r.RunFlat(frames[i%len(frames)], tc.n, tc.d, Config{K: 3}, rng, assign); err != nil {
					b.Fatal(err)
				}
				pointIters += tc.n * r.Iterations()
				scans += r.scans
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pointIters), "ns/point-iter")
			b.ReportMetric(float64(scans)/float64(pointIters), "scans/point-iter")
		})
	}
}

// balancedClusters returns n d-dimensional points in three balanced, well
// separated clusters and their three centroids, row-major. Sorted, the
// points come cluster by cluster; shuffled, the cluster of one point says
// nothing about the cluster of the next.
func balancedClusters(n, d int, shuffled bool) (pts, cents []float64) {
	rng := rand.New(rand.NewPCG(7, 70))
	cents = make([]float64, 3*d)
	for j := 0; j < 3; j++ {
		for t := 0; t < d; t++ {
			cents[j*d+t] = 0.2 + 0.3*float64(j)
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i * 3 / n
	}
	if shuffled {
		rng.Shuffle(n, func(a, b int) { order[a], order[b] = order[b], order[a] })
	}
	pts = make([]float64, n*d)
	for i, j := range order {
		for t := 0; t < d; t++ {
			pts[i*d+t] = cents[j*d+t] + 0.05*rng.NormFloat64()
		}
	}
	return pts, cents
}

// BenchmarkAssignFlat is one warm-path assignment pass per op: N = 10 000
// points against K = 3 centroids of three balanced clusters. The sorted and
// shuffled cases do the same arithmetic on the same multiset of points; they
// differ only in whether "which centroid wins" is predictable from the
// previous point. A kernel that selects the winner with a branch is several
// times slower shuffled than sorted (a mispredict per point); the integer
// compare-and-select kernels of kernels.go are not. A sorted/shuffled gap
// in this benchmark therefore means a data-dependent branch is back in the
// nearest-centroid loop.
func BenchmarkAssignFlat(b *testing.B) {
	for _, tc := range []struct {
		name     string
		d        int
		shuffled bool
	}{
		{"N=10000-d1-sorted", 1, false},
		{"N=10000-d1-shuffled", 1, true},
		{"N=10000-d4-shuffled", 4, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			const n = 10000
			pts, cents := balancedClusters(n, tc.d, tc.shuffled)
			assign := make([]int, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				AssignFlat(pts, n, tc.d, cents, 3, assign)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/point")
		})
	}
}
