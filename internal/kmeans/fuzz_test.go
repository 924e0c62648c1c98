package kmeans

import (
	"encoding/binary"
	"fmt"
	"math"
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

// FuzzRunFlatRawMatchesReference is the reference differential under raw
// float64 bit patterns: every eight input bytes become one coordinate
// verbatim, so NaN of both signs, ±Inf, ±0, subnormals and magnitudes whose
// squares overflow or underflow — which the grid of FuzzRunFlatMatchesReference
// cannot produce — reach the seeding pass, the bound and scan passes and the
// update step at every width, d = 1…8 (the unrolled bodies for d ≤ 4 and the
// generic loop above). The seed corpus holds one file per class of special
// value.
func FuzzRunFlatRawMatchesReference(f *testing.F) {
	ordinary := make([]byte, 0, 8*12)
	for _, v := range []float64{0, 0.25, 2, 2.25, 0.5, 9, 9.5, 0.1, 2.1, 8.75, 0.3, 1.9} {
		ordinary = binary.LittleEndian.AppendUint64(ordinary, math.Float64bits(v))
	}
	f.Add(ordinary, uint64(5), uint8(2), uint8(0), uint8(0), false)
	f.Fuzz(func(t *testing.T, data []byte, seed uint64, kSel, dSel, iterSel uint8, tol bool) {
		d := 1 + int(dSel%8)
		n := min(len(data)/(8*d), 256)
		if n == 0 {
			return
		}
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = make([]float64, d)
			for c := range pts[i] {
				pts[i][c] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*(i*d+c):]))
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

// FuzzNearestKernelsMatchReference is the kernel differential under raw
// float64 bit patterns: every eight input bytes become one coordinate
// verbatim, so NaN of both signs, ±Inf, ±0, subnormals and magnitudes whose
// squares overflow or underflow — none of which the grid of the target above
// can produce — reach AssignFlat (d = 1…8) and nearestTwo. The first K·d
// values are the centroids, the rest the points. The seed corpus holds one
// file per class of special value.
func FuzzNearestKernelsMatchReference(f *testing.F) {
	ordinary := make([]byte, 0, 8*8)
	for _, v := range []float64{0.25, 0.75, 0.5, 0.1, 0.9, 0.5, 0.5, 0.74} {
		ordinary = binary.LittleEndian.AppendUint64(ordinary, math.Float64bits(v))
	}
	f.Add(ordinary, uint8(0), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, dSel, kSel uint8) {
		d, k := 1+int(dSel%8), 1+int(kSel%6)
		vals := make([]float64, min(len(data)/8, 2048))
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		n := (len(vals) - k*d) / d
		if n < 1 {
			return
		}
		cents, pts := vals[:k*d], vals[k*d:]
		checkKernelsMatchReference(t, fmt.Sprintf("n=%d d=%d K=%d", n, d, k), pts, n, d, cents, k)
	})
}
