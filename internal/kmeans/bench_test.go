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
// the two shapes the repository benchmark reaches RunFlat with: the joint
// d=4 fleet of step_joint_d4 and the scalar per-resource fleet of
// ingest_serve.
func BenchmarkRunFlat(b *testing.B) {
	for _, tc := range []struct {
		name string
		n, d int
	}{
		{"N=10000-d4", 10000, 4},
		{"N=4096-d1", 4096, 1},
	} {
		b.Run(tc.name, func(b *testing.B) {
			frames := traceFrames(b, tc.n, tc.d, 24)
			r := NewRunner()
			rng := rand.New(rand.NewPCG(1, 2))
			assign := make([]int, tc.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := r.RunFlat(frames[i%len(frames)], tc.n, tc.d, Config{K: 3}, rng, assign); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
