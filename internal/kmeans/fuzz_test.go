package kmeans

import (
	"fmt"
	"testing"
)

// FuzzRunFlatMatchesReference is the reference differential under
// coverage-guided inputs. Every byte becomes one coordinate on an eight-level
// grid, so duplicate points, coincident seeds and exact distance ties — the
// inputs on which a wrong skip or a reordered comparison shows — are the
// common case rather than the rare one.
func FuzzRunFlatMatchesReference(f *testing.F) {
	// From the seeds (0, 1) point ¾ joins centroid 1; the update step moves
	// the centroids to ¼ and 1¼ and the carried bounds meet in an exact tie.
	f.Add([]byte{0, 2, 4, 3, 6, 7}, uint64(112), uint8(1), uint8(0), uint8(0), false)
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint64(7), uint8(2), uint8(3), uint8(0), true)
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, uint64(3), uint8(3), uint8(1), uint8(2), false)
	f.Fuzz(func(t *testing.T, data []byte, seed uint64, kSel, dSel, iterSel uint8, tol bool) {
		d := 1 + int(dSel%8)
		n := min(len(data)/d, 256)
		if n == 0 {
			return
		}
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = make([]float64, d)
			for c := range pts[i] {
				pts[i][c] = float64(data[i*d+c]%8) / 4
			}
		}
		cfg := Config{K: 1 + int(kSel)%min(n, 12), MaxIterations: int(iterSel % 6)}
		if tol {
			cfg.Tolerance = 1e-3
		}
		tag := fmt.Sprintf("n=%d d=%d K=%d iters=%d tol=%g", n, d, cfg.K, cfg.MaxIterations, cfg.Tolerance)
		diffAgainstReference(t, tag, pts, cfg, seed)
	})
}
