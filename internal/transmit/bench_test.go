package transmit

import (
	"math"
	"sync"
	"testing"
)

// BenchmarkAdaptiveDecide times Adaptive.Decide over a fleet of N = 4096
// nodes and 820 steps, d = 2, and reports ns per decision, in the four
// orders callers decide in:
//   - step-major: every node at one step, then the next, as core's walk asks;
//   - node-major: every step of one node, then the next, as a set-up
//     replaying a trace asks;
//   - two-gammas: step-major with γ alternating 0.65 / 0.5 from node to
//     node, a mixed fleet;
//   - 8-goroutines-skewed: eight goroutines, each deciding its eighth of the
//     fleet step-major from a step an eighth of the run past the previous
//     one's, as agents, load-generator shards and parallel sweeps do.
func BenchmarkAdaptiveDecide(b *testing.B) {
	const n, steps, workers = 4096, 820, 8
	rows := make([][]float64, n+steps) // node i's row at step s is rows[i+s]
	for k := range rows {
		rows[k] = []float64{0.5 + 0.4*math.Sin(float64(k)*0.37), 0.5 + 0.4*math.Cos(float64(k)*0.11)}
	}
	cases := []struct {
		name   string
		gammas []float64
		sweep  func(decide func(i, s int))
	}{
		{"step-major", []float64{0.65}, func(decide func(i, s int)) {
			for s := 1; s <= steps; s++ {
				for i := range n {
					decide(i, s)
				}
			}
		}},
		{"node-major", []float64{0.65}, func(decide func(i, s int)) {
			for i := range n {
				for s := 1; s <= steps; s++ {
					decide(i, s)
				}
			}
		}},
		{"two-gammas", []float64{0.65, 0.5}, func(decide func(i, s int)) {
			for s := 1; s <= steps; s++ {
				for i := range n {
					decide(i, s)
				}
			}
		}},
		{"8-goroutines-skewed", []float64{0.65}, func(decide func(i, s int)) {
			var wg sync.WaitGroup
			for w := range workers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for k := range steps {
						s := 1 + (k+w*steps/workers)%steps
						for i := w * n / workers; i < (w+1)*n/workers; i++ {
							decide(i, s)
						}
					}
				}()
			}
			wg.Wait()
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			policies := make([]*Adaptive, n)
			for i := range policies {
				p, err := NewAdaptive(AdaptiveConfig{Budget: 0.3, Gamma: c.gammas[i%len(c.gammas)]})
				if err != nil {
					b.Fatal(err)
				}
				policies[i] = p
			}
			stored := make([][]float64, n)
			decide := func(i, s int) {
				if x := rows[i+s-1]; policies[i].Decide(s, x, stored[i]) {
					stored[i] = x
				}
			}
			b.ResetTimer()
			for range b.N {
				c.sweep(decide)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(n*steps), "ns/decision")
		})
	}
}
