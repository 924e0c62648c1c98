package kmeans

import "math"

// The Runner's distance kernels. For d ≤ 4 the coordinate loop of sqDist is
// unrolled; the accumulation keeps its order, s = d₀², s += d₁², …, so every
// kernel returns the bits sqDist returns (pinned by TestKernelsMatchSqDist
// and, end to end, by the reference differential).

// sqDistFlat is sqDist specialised by len(a).
func sqDistFlat(a, b []float64) float64 {
	switch len(a) {
	case 1:
		d0 := a[0] - b[0]
		return d0 * d0
	case 2:
		b = b[:2]
		d0, d1 := a[0]-b[0], a[1]-b[1]
		s := d0 * d0
		s += d1 * d1
		return s
	case 3:
		b = b[:3]
		d0, d1, d2 := a[0]-b[0], a[1]-b[1], a[2]-b[2]
		s := d0 * d0
		s += d1 * d1
		s += d2 * d2
		return s
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

// nearestTwo scans the k row-major centroids in cents for point p. It
// returns the strict-<, ascending-index nearest centroid and its computed
// squared distance — the winner and distance nearestFlat finds — plus the
// smallest computed squared distance among the other centroids (+Inf when
// there is none; NaN distances never win and are not counted).
func nearestTwo(p, cents []float64, k int) (best int, bestD, otherD float64) {
	bestD, otherD = math.Inf(1), math.Inf(1)
	switch len(p) {
	case 1:
		p0 := p[0]
		for j, c := range cents[:k] {
			d0 := p0 - c
			dd := d0 * d0
			if dd < bestD {
				otherD = bestD
				best, bestD = j, dd
			} else if dd < otherD {
				otherD = dd
			}
		}
	case 2:
		p0, p1 := p[0], p[1]
		for j := 0; j < k; j++ {
			c := cents[2*j : 2*j+2]
			d0, d1 := p0-c[0], p1-c[1]
			dd := d0 * d0
			dd += d1 * d1
			if dd < bestD {
				otherD = bestD
				best, bestD = j, dd
			} else if dd < otherD {
				otherD = dd
			}
		}
	case 3:
		p0, p1, p2 := p[0], p[1], p[2]
		for j := 0; j < k; j++ {
			c := cents[3*j : 3*j+3]
			d0, d1, d2 := p0-c[0], p1-c[1], p2-c[2]
			dd := d0 * d0
			dd += d1 * d1
			dd += d2 * d2
			if dd < bestD {
				otherD = bestD
				best, bestD = j, dd
			} else if dd < otherD {
				otherD = dd
			}
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
			if dd < bestD {
				otherD = bestD
				best, bestD = j, dd
			} else if dd < otherD {
				otherD = dd
			}
		}
	default:
		d := len(p)
		for j := 0; j < k; j++ {
			dd := sqDist(p, cents[j*d:(j+1)*d])
			if dd < bestD {
				otherD = bestD
				best, bestD = j, dd
			} else if dd < otherD {
				otherD = dd
			}
		}
	}
	return best, bestD, otherD
}
