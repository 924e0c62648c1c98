package kmeans

import "math"

// The Runner's distance kernels. The coordinate loop of sqDist is unrolled
// only at the widths the benchmark workloads run: d = 1 (the per-resource
// trackers) and d = 4 (the joint fleet); every other width takes the loop.
// Likewise the scalar assignment (AssignFlat at d = 1) is unrolled at the K
// the workloads run, 3, and loops over the centroids at every other K.
// The unrolled bodies keep the loop's order, s = d₀², s += d₁², …, and start
// at the first square because 0 + d₀² is exact (a square is never −0), so
// every kernel returns the bits sqDist returns (pinned by
// TestKernelsMatchSqDist and, end to end, by the reference differential).
//
// The nearest-centroid loops pick their winner without a float compare. "Is
// this centroid closer than the best so far" is, per point, a coin toss over
// K balanced clusters: as a float compare-and-assign it compiles to a branch
// that mispredicts about once per point, and that costs more than the
// arithmetic. They compare the distances' bit patterns as unsigned integers
// instead, which the compiler turns into conditional moves. The order is the
// same one, by the following argument.
//
//   - A computed squared distance is s = d₀·d₀, s += d₁·d₁, …: a square is
//     never negative and never −0 (−0·−0 = +0), and a sum of such terms is
//     neither. So a squared distance is in [+0, +Inf] or is NaN.
//   - On [+0, +Inf] the IEEE-754 encoding is monotone: a < b exactly when
//     Float64bits(a) < Float64bits(b), and equal values have equal bits.
//   - Every NaN, of either sign, has bits above infBits (+Inf).
//   - A running minimum starts at infBits and is replaced only by a b with
//     b < minimum, so it never leaves [+0, +Inf]: it is never NaN, a NaN
//     distance never passes b < minimum (it is above +Inf), and min(minimum,
//     b) keeps the minimum — the same outcome as the float test dd < bestD,
//     which is false for NaN.
//
// Hence `if b < bestB { best = j }; bestB = min(bestB, b)` selects the
// strict-<, ascending-index, NaN-never-wins winner of the float loop it
// replaced, and bestB holds that winner's exact distance bits; there is no
// tolerance and no fallback path. The float scan is kept as the oracle in
// reference_test.go (refNearestTwo), and BenchmarkAssignFlat's sorted and
// shuffled cases show a branch coming back.

// infBits is Float64bits(+Inf): the start value of a running minimum, and
// the largest bit pattern that is not a NaN among non-negative floats.
const infBits = 0x7FF0000000000000

// sqDistFlat is sqDist specialised by len(a).
func sqDistFlat(a, b []float64) float64 {
	switch len(a) {
	case 1:
		d0 := a[0] - b[0]
		return d0 * d0
	case 4:
		b = b[:4]
		d0, d1, d2, d3 := a[0]-b[0], a[1]-b[1], a[2]-b[2], a[3]-b[3]
		s := d0 * d0
		s += d1 * d1
		s += d2 * d2
		s += d3 * d3
		return s
	}
	return sqDist(a, b)
}

// sqDistsTo sets out[i] to sqDistFlat(point i, c) for the len(out)
// d-dimensional row-major points in pts, unrolled at sqDistFlat's widths
// with no call per point.
func sqDistsTo(pts []float64, d int, c, out []float64) {
	pts = pts[:len(out)*d]
	switch d {
	case 1:
		c0 := c[0]
		pts = pts[:len(out)]
		for i, x := range pts {
			d0 := x - c0
			out[i] = d0 * d0
		}
	case 4:
		c0, c1, c2, c3 := c[0], c[1], c[2], c[3]
		for i := range out {
			p := pts[4*i : 4*i+4 : 4*i+4]
			d0, d1, d2, d3 := p[0]-c0, p[1]-c1, p[2]-c2, p[3]-c3
			s := d0 * d0
			s += d1 * d1
			s += d2 * d2
			s += d3 * d3
			out[i] = s
		}
	default:
		for i := range out {
			out[i] = sqDist(pts[i*d:(i+1)*d], c)
		}
	}
}

// nearestTwo scans the k row-major centroids in cents for point p. It
// returns the strict-<, ascending-index nearest centroid and its computed
// squared distance, plus the smallest computed squared distance among the
// other centroids (+Inf when there is none; NaN distances never win and are
// not counted). With bestB ≤ otherB as the invariant, max(b, bestB) is the
// loser of this round — the old best when b wins, b otherwise, a NaN b
// included, which then fails min(otherB, ·).
func nearestTwo(p, cents []float64, k int) (best int, bestD, otherD float64) {
	bestB, otherB := uint64(infBits), uint64(infBits)
	switch len(p) {
	case 1:
		p0 := p[0]
		for j, c := range cents[:k] {
			d0 := p0 - c
			dd := d0 * d0
			b := math.Float64bits(dd)
			if b < bestB {
				best = j
			}
			otherB = min(otherB, max(b, bestB))
			bestB = min(bestB, b)
		}
	case 4:
		p0, p1, p2, p3 := p[0], p[1], p[2], p[3]
		for j := 0; j < k; j++ {
			c := cents[4*j : 4*j+4]
			d0, d1, d2, d3 := p0-c[0], p1-c[1], p2-c[2], p3-c[3]
			dd := d0 * d0
			dd += d1 * d1
			dd += d2 * d2
			dd += d3 * d3
			b := math.Float64bits(dd)
			if b < bestB {
				best = j
			}
			otherB = min(otherB, max(b, bestB))
			bestB = min(bestB, b)
		}
	default:
		d := len(p)
		for j := 0; j < k; j++ {
			dd := sqDist(p, cents[j*d:(j+1)*d])
			b := math.Float64bits(dd)
			if b < bestB {
				best = j
			}
			otherB = min(otherB, max(b, bestB))
			bestB = min(bestB, b)
		}
	}
	return best, math.Float64frombits(bestB), math.Float64frombits(otherB)
}
