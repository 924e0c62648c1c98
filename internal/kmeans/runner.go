package kmeans

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
)

// Runner executes K-means over a flat struct-of-arrays point layout with
// reusable scratch buffers: repeated runs (the cluster tracker refits every
// step) allocate nothing after the first. The package-level Run wraps a
// fresh Runner; long-lived callers keep one.
//
// RunFlat is Lloyd's algorithm with Hamerly-style distance bounds: per point
// it keeps an upper bound on the distance to the assigned centroid and a
// lower bound on the distance to every other centroid, shifts both by the
// centroid movements after each update step, and rescans the K centroids
// only for points whose bounds cannot prove the winner unchanged. Each
// assignment step after the first is two passes (see assignStep): a bound
// pass over every point that carries the bounds over the update and lists
// the points it cannot prove, and a scan pass over that list alone. The
// update step (recompute) is unrolled for d = 1 and 4. The pruning is exact:
// every distance that is evaluated uses the arithmetic order of sqDist, the
// winner is the strict-<, ascending-index one, the update step sums points in
// ascending order and the RNG is drawn from at the same places, so RunFlat
// is bit-identical to the historical slice-of-rows Lloyd on the same inputs
// and RNG state — assignments, centroids, iteration count and draw
// sequence (pinned against the preserved implementation by
// TestRunnerMatchesReferenceExactly, FuzzRunFlatMatchesReference and
// FuzzRunFlatRawMatchesReference). A Runner is not safe for concurrent use.
type Runner struct {
	cents  []float64 // k×d row-major centroids of the last run
	prev   []float64 // k×d previous-iteration centroids (convergence check)
	d2     []float64 // per point: squared distance to nearest seed, then the upper bound
	lower  []float64 // per point: seeding scratch, then a lower bound on the distance to every other centroid
	scan   []int32   // the points the last bound pass could not prove, ascending
	counts []int     // per-cluster member counts
	shift  []float64 // per centroid: upper bound on its movement in the last update step
	others []float64 // per centroid: the largest entry of shift among the other centroids
	half   []float64 // per centroid: lower bound on half the distance to the nearest other
	k, d   int
	iters  int
	scans  int // full K-way scans of the last run; n·(iterations+1) without pruning

	up, down float64 // outward-rounding factors of the bounds, 1 ± a few ulps
}

// NewRunner returns an empty Runner; buffers are sized on first use.
func NewRunner() *Runner { return &Runner{} }

// RunFlat clusters the n d-dimensional points stored row-major in pts
// (length ≥ n·d) into cfg.K clusters, writing the final assignment into
// assign (length n). When K ≥ n every point becomes its own centroid,
// consuming no randomness (the trivial case of Run). The resulting centroids
// and iteration count stay readable on the Runner until the next run. A negative MaxIterations is rejected with
// ErrBadInput. Iteration stops once no centroid moves.
func (r *Runner) RunFlat(pts []float64, n, d int, cfg Config, rng *rand.Rand, assign []int) error {
	cfg = cfg.withDefaults()
	if cfg.K < 1 || n < 1 || d < 1 || len(pts) < n*d || len(assign) != n {
		return fmt.Errorf("kmeans: flat run n=%d d=%d K=%d with %d values, %d assign slots: %w",
			n, d, cfg.K, len(pts), len(assign), ErrBadInput)
	}
	if cfg.MaxIterations < 0 {
		return fmt.Errorf("kmeans: MaxIterations %d: %w", cfg.MaxIterations, ErrBadInput)
	}
	k := cfg.K
	r.scans = 0
	if k >= n {
		r.k, r.d = n, d
		r.cents = append(r.cents[:0], pts[:n*d]...)
		for i := range assign {
			assign[i] = i
		}
		r.iters = 0
		return nil
	}

	r.k, r.d = k, d
	r.sizeScratch(n, d, k)
	// A computed sqDist is the true squared distance within a factor
	// (1±2⁻⁵³)^(d+2), so its square root is off by about (d+2)/2 ulps; the
	// remaining ulps cover the roundings of the bound arithmetic itself.
	slack := float64(d+16) * 0x1p-53
	r.up, r.down = 1+slack, 1-slack
	r.seedPlusPlus(pts, n, d, k, rng)

	// settled: the last assignment step ran against the final centroids, so
	// the final pass would only recompute what assign already holds.
	iters, settled := 0, false
	// repaired and moved describe the previous iteration's update step.
	repaired, moved := false, 0.0
	for iters < cfg.MaxIterations {
		iters++
		// Assignment step.
		changed := r.assignStep(pts, n, d, k, assign, iters > 1)
		// When no point changed cluster and the last update step was a plain
		// mean of these same assignments, this update step would return the
		// same bits. A finite last movement means finite centroids, each at
		// computed distance 0 from itself, so the convergence check below
		// would find moved = 0 and equal centroids: settled.
		if !changed && !repaired && moved <= math.MaxFloat64 {
			settled = true
			break
		}
		// Update step.
		copy(r.prev, r.cents)
		repaired = r.recompute(pts, n, d, k, assign)
		if repaired {
			r.repairEmpty(pts, n, d, k, assign, rng)
		}
		// Convergence check.
		moved = r.movements(k, d)
		if moved <= 0 {
			// moved = 0 alone does not make the centroids equal (a squared
			// difference can underflow), and a repair rewrites assign after
			// the assignment step.
			settled = !repaired && slices.Equal(r.cents, r.prev)
			break
		}
	}
	// Final assignment against the converged centroids.
	if !settled {
		r.assignStep(pts, n, d, k, assign, iters > 0)
	}
	r.iters = iters
	return nil
}

// NumCentroids returns how many centroids the last run produced (K, or n in
// the trivial K ≥ n case).
func (r *Runner) NumCentroids() int { return r.k }

// Centroid returns a view of centroid j from the last run, valid until the
// next run.
func (r *Runner) Centroid(j int) []float64 {
	return r.cents[j*r.d : (j+1)*r.d : (j+1)*r.d]
}

// Iterations returns the number of Lloyd iterations the last run executed.
func (r *Runner) Iterations() int { return r.iters }

func (r *Runner) sizeScratch(n, d, k int) {
	if cap(r.cents) < k*d {
		r.cents = make([]float64, k*d)
	}
	if cap(r.prev) < k*d { // sized apart: a trivial K ≥ n run grows cents alone
		r.prev = make([]float64, k*d)
	}
	r.cents = r.cents[:k*d]
	r.prev = r.prev[:k*d]
	if cap(r.d2) < n {
		r.d2 = make([]float64, n)
		r.lower = make([]float64, n)
	}
	r.d2 = r.d2[:n]
	r.lower = r.lower[:n]
	if cap(r.scan) < n {
		r.scan = make([]int32, n)
	}
	r.scan = r.scan[:n]
	if cap(r.counts) < k {
		r.counts = make([]int, k)
		r.shift = make([]float64, k)
		r.others = make([]float64, k)
		r.half = make([]float64, k)
	}
	r.counts = r.counts[:k]
	r.shift = r.shift[:k]
	r.others = r.others[:k]
	r.half = r.half[:k]
}

// boundTiny covers what a relative slack cannot: squared differences that
// underflow put an absolute error of up to d·2⁻¹⁰⁷⁴ on a computed sqDist,
// and the square root of that is far below 2⁻⁵⁰⁰.
const boundTiny = 0x1p-500

// upperDist returns an upper bound on the true Euclidean distance between
// two float64 vectors whose computed squared distance is sq. +Inf and NaN
// pass through; neither ever satisfies the skip test of assignStep.
func (r *Runner) upperDist(sq float64) float64 {
	return math.Sqrt(sq)*r.up + boundTiny
}

// lowerDist is the matching lower bound. A sq that overflowed says nothing
// about the true distance, so it yields the trivial bound.
func (r *Runner) lowerDist(sq float64) float64 {
	if sq > math.MaxFloat64 {
		return 0
	}
	return math.Sqrt(sq)*r.down - boundTiny
}

// assignStep is the assignment step: assign[i] becomes the strict-<,
// ascending-index nearest centroid of point i, exactly as a scan of all K
// computed distances would choose it.
//
// With bounded false it is that scan for every point, and it initialises the
// bounds u = r.d2[i] ≥ dist(pᵢ, c_assign[i]) and l = r.lower[i] ≤ dist(pᵢ, cⱼ)
// for every j ≠ assign[i], as true distances between the stored vectors.
// With bounded true it first carries the bounds over the last update step —
// u grows by the movement of its centroid, l shrinks by the largest movement
// among the others, both rounded outward — and then skips point i when
//
//	u·up + boundTiny < max(l, half the distance from c_assign[i] to its nearest other centroid)
//
// By the triangle inequality the right-hand side is a lower bound on the
// distance to every other centroid, and the slack on the left is wider than
// the rounding error of two computed squared distances, so for a skipped
// point the computed distance to its own centroid is strictly below every
// other computed distance: the scan would return assign[i] again. Every
// other point is scanned, which also makes both of its bounds tight again.
// NaN bounds fail every test.
//
// The bounded step is two passes. The bound pass carries u and l over the
// update for every point and appends each point the skip test does not prove
// to r.scan; the append is a store plus a conditional increment, so the pass
// has no branch that depends on the data. The scan pass then runs nearestTwo
// over the list alone. A point's carried bounds and its scan depend on no
// other point, so this scans exactly the points, in the same order and with
// the same results, as one pass testing and scanning point by point.
//
// It reports whether any scan moved a point to another cluster; the unbounded
// step, which starts from no assignment, always reports true.
func (r *Runner) assignStep(pts []float64, n, d, k int, assign []int, bounded bool) (changed bool) {
	u, l, cents := r.d2[:n], r.lower[:n], r.cents[:k*d]
	assign = assign[:n]
	if !bounded {
		for i := range assign {
			best, bestD, otherD := nearestTwo(pts[i*d:(i+1)*d], cents, k)
			assign[i] = best
			u[i] = r.upperDist(bestD)
			l[i] = r.lowerDist(otherD)
		}
		r.scans += n
		return true
	}
	half := r.half[:k]
	for a := range half {
		half[a] = math.Inf(1)
	}
	for a := 0; a < k; a++ {
		for j := a + 1; j < k; j++ {
			h := r.lowerDist(sqDistFlat(cents[a*d:(a+1)*d], cents[j*d:(j+1)*d])) / 2
			half[a], half[j] = min(half[a], h), min(half[j], h)
		}
	}
	list := r.boundPass(assign, u, l)
	// Scan pass.
	moves := 0
	for _, i32 := range list {
		i := int(i32)
		best, bestD, otherD := nearestTwo(pts[i*d:(i+1)*d], cents, k)
		moves |= best ^ assign[i]
		assign[i] = best
		u[i] = r.upperDist(bestD)
		l[i] = r.lowerDist(otherD)
	}
	r.scans += len(list)
	return moves != 0
}

// boundPass is the first pass of a bounded assignment step: it carries the
// bounds u and l of every point over the last update step and returns, as a
// prefix of r.scan, the points the skip test does not prove.
func (r *Runner) boundPass(assign []int, u, l []float64) []int32 {
	u, l = u[:len(assign)], l[:len(assign)]
	// Cut to one length, so that one bounds check on a covers all three.
	shift, others, half := r.shift, r.others[:len(r.shift)], r.half[:len(r.shift)]
	up, down := r.up, r.down
	list, m := r.scan[:len(assign)], 0
	for i, a := range assign {
		ui := (u[i] + shift[a]) * up
		li := (l[i] - others[a]) * down
		u[i], l[i] = ui, li
		x := ui*up + boundTiny
		keep := 1
		if x < li {
			keep = 0
		}
		if x < half[a] {
			keep = 0
		}
		list[m] = int32(i)
		m += keep
	}
	return list[:m]
}

// movements is the convergence check: it returns the largest computed
// squared movement of a centroid in the last update step. For the next
// assignStep it also records an upper bound on every centroid's movement
// and, per centroid, the largest of the bounds of the others.
func (r *Runner) movements(k, d int) float64 {
	moved := 0.0
	big, second, bigAt := 0.0, 0.0, -1
	for j := 0; j < k; j++ {
		mj := sqDistFlat(r.cents[j*d:(j+1)*d], r.prev[j*d:(j+1)*d])
		moved = math.Max(moved, mj)
		s := r.upperDist(mj)
		r.shift[j] = s
		switch {
		case s > big:
			big, second, bigAt = s, big, j
		case s > second:
			second = s
		case math.IsNaN(s):
			big, second = s, s // a NaN movement voids every lower bound
		}
	}
	for j := range r.others {
		r.others[j] = big
	}
	if bigAt >= 0 {
		r.others[bigAt] = second
	}
	return moved
}

// seedPlusPlus is the flat-layout k-means++ seeding; draw-for-draw identical
// to the reference implementation. Each round computes every point's
// distance to the newest seed into r.lower (scratch until the first
// assignment step), then makes one pass over d2 — the distances to the first
// seed, then the running minimum with the newest one — that also sums the
// sampling total, adding the same values in the same ascending order as the
// reference's separate loop. There is no pass after the last seed: the first
// assignment step overwrites every entry of d2.
func (r *Runner) seedPlusPlus(pts []float64, n, d, k int, rng *rand.Rand) {
	d2, dist := r.d2[:n], r.lower[:n]
	first := rng.IntN(n)
	c := r.cents[0:d]
	copy(c, pts[first*d:(first+1)*d])
	for have := 1; have < k; have++ {
		sqDistsTo(pts, d, c, dist)
		total := 0.0
		for i, b := range dist {
			cur := b
			if have > 1 {
				// A current minimum that is NaN (it started as a computed
				// distance, not at +Inf) stays: no float compares below it.
				cur = d2[i]
				if cb := math.Float64bits(cur); cb <= infBits {
					cur = math.Float64frombits(min(cb, math.Float64bits(b)))
				}
			}
			d2[i] = cur
			total += cur
		}
		var idx int
		if total <= 0 {
			// All points coincide with existing centroids; pick uniformly.
			idx = rng.IntN(n)
		} else {
			rr := rng.Float64() * total
			acc := 0.0
			idx = n - 1
			for i, v := range d2 {
				acc += v
				if acc >= rr {
					idx = i
					break
				}
			}
		}
		c = r.cents[have*d : (have+1)*d]
		copy(c, pts[idx*d:(idx+1)*d])
	}
}

// recompute is the update step: each centroid becomes the mean of its
// members, summed in ascending point order from +0 and scaled by 1/count, the
// arithmetic of the reference. For d = 1 and 4, the widths the benchmark
// workloads run, the coordinate loop is unrolled with the same adds in the
// same order, and the slices are cut once so that only the data-dependent
// cluster index is bounds-checked; every other width keeps the loop.
// It leaves the member counts in r.counts and reports whether a cluster came
// out empty (its centroid is then left for repairEmpty).
func (r *Runner) recompute(pts []float64, n, d, k int, assign []int) (empty bool) {
	pts, assign = pts[:n*d], assign[:n]
	cents, counts := r.cents[:k*d], r.counts[:k]
	clear(cents)
	clear(counts)
	switch d {
	case 1:
		pts = pts[:len(assign)]
		for i, j := range assign {
			counts[j]++
			cents[j] += pts[i]
		}
	case 4:
		for len(assign) > 0 && len(pts) >= 4 {
			j := assign[0]
			counts[j]++
			c := cents[4*j : 4*j+4]
			c[0] += pts[0]
			c[1] += pts[1]
			c[2] += pts[2]
			c[3] += pts[3]
			pts, assign = pts[4:], assign[1:]
		}
	default:
		for i, j := range assign {
			counts[j]++
			c := cents[j*d : (j+1)*d]
			for t, v := range pts[i*d : (i+1)*d] {
				c[t] += v
			}
		}
	}
	for j, c := range counts {
		if c == 0 {
			empty = true
			continue
		}
		inv := 1 / float64(c)
		cj := cents[j*d : (j+1)*d]
		for t := range cj {
			cj[t] *= inv
		}
	}
	return empty
}

// repairEmpty relocates centroids of empty clusters to the point currently
// farthest from its assigned centroid (see the reference implementation),
// starting from the member counts recompute left in r.counts. A moved point
// changes cluster outside the assignment step, so its bounds are reset to
// the trivial ones.
func (r *Runner) repairEmpty(pts []float64, n, d, k int, assign []int, rng *rand.Rand) {
	counts := r.counts[:k]
	for j := 0; j < k; j++ {
		if counts[j] > 0 {
			continue
		}
		far, farDist := -1, -1.0
		for i := 0; i < n; i++ {
			if counts[assign[i]] <= 1 {
				continue // do not empty another cluster
			}
			a := assign[i]
			if dd := sqDistFlat(pts[i*d:(i+1)*d], r.cents[a*d:(a+1)*d]); dd > farDist {
				far, farDist = i, dd
			}
		}
		if far < 0 {
			far = rng.IntN(n)
		}
		counts[assign[far]]--
		assign[far] = j
		counts[j] = 1
		copy(r.cents[j*d:(j+1)*d], pts[far*d:(far+1)*d])
		r.d2[far], r.lower[far] = math.Inf(1), 0
	}
}

// AssignFlat maps each of the n d-dimensional row-major points in pts to its
// nearest of the k row-major centroids in cents, writing assign[i]: the
// strict-<, ascending-index winner over the computed squared distances, as
// nearestTwo picks it (a point all of whose distances are NaN or +Inf goes to
// centroid 0). It consumes no randomness; the incremental cluster tracker
// uses it as the warm-start pass seeded from the previous step's centroids.
//
// It requires k ≥ 1, d ≥ 1, len(pts) ≥ n·d, len(cents) ≥ k·d and
// len(assign) ≥ n, and panics before writing anything otherwise: a caller
// with no centroid to assign to has a bug, not an input problem.
func AssignFlat(pts []float64, n, d int, cents []float64, k int, assign []int) {
	if k < 1 || d < 1 {
		panic(fmt.Sprintf("kmeans: AssignFlat with k=%d d=%d", k, d))
	}
	// The reslices enforce the length preconditions once, and let the
	// compiler drop the bounds checks inside the loops.
	pts, cents, assign = pts[:n*d], cents[:k*d], assign[:n]
	if d > 1 {
		for i := range assign {
			assign[i], _, _ = nearestTwo(pts[i*d:(i+1)*d], cents, k)
		}
		return
	}
	// Scalar fast path: the per-resource trackers cluster 1-dimensional
	// points, where a call and a slice per point cost more than the
	// arithmetic. Same subtraction and square in the same index order as
	// nearestTwo, and the same integer select (see kernels.go).
	assign = assign[:len(pts)]
	if k == 3 {
		// The K every workload runs, with the centroids in registers. The
		// running minimum still starts at infBits, so that centroid 0 wins
		// only with a distance below it: a NaN or +Inf distance to every
		// centroid leaves the point at 0 with the loop's minimum. The last
		// compare needs no min after it.
		c0, c1, c2 := cents[0], cents[1], cents[2]
		for i, x := range pts {
			d0, d1, d2 := x-c0, x-c1, x-c2
			b0, b1, b2 := math.Float64bits(d0*d0), math.Float64bits(d1*d1), math.Float64bits(d2*d2)
			best, bestB := 0, min(uint64(infBits), b0)
			if b1 < bestB {
				best = 1
			}
			bestB = min(bestB, b1)
			if b2 < bestB {
				best = 2
			}
			assign[i] = best
		}
		return
	}
	for i, x := range pts {
		best, bestB := 0, uint64(infBits)
		for j, c := range cents {
			diff := x - c
			b := math.Float64bits(diff * diff)
			if b < bestB {
				best = j
			}
			bestB = min(bestB, b)
		}
		assign[i] = best
	}
}
