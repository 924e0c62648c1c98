package kmeans

// This file preserves the pre-SoA slice-of-rows K-means implementation,
// verbatim, as the reference oracle for the differential tests that pin the
// flat Runner bit-identical (same assignments, centroids, iteration count,
// and RNG draw sequence). Do not "fix" or optimize it: its exact arithmetic
// order is the contract. The edits since are the iteration counter, which
// used to report MaxIterations+1 when Lloyd hit the cap, and the inertia sum
// of the final assignment, dropped with the Runner's.
//
// refNearestTwo, at the end, is the float-compare centroid scan the kernels
// ran before they compared distances as integers: the oracle for AssignFlat
// and nearestTwo, which must not share code with either.

import (
	"math"
	"math/rand/v2"
)

func refRun(points [][]float64, cfg Config, rng *rand.Rand) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := validate(points, cfg); err != nil {
		return nil, err
	}
	n := len(points)
	k := cfg.K
	if k >= n {
		return refTrivialResult(points), nil
	}

	centroids := refSeedPlusPlus(points, k, rng)
	assign := make([]int, n)
	prev := make([][]float64, k)
	iter := 0
	for iter < cfg.MaxIterations {
		iter++
		// Assignment step.
		for i, p := range points {
			assign[i] = nearest(p, centroids)
		}
		// Update step.
		for j := range centroids {
			prev[j] = centroids[j]
		}
		centroids = refRecompute(points, assign, k, len(points[0]))
		refRepairEmpty(points, assign, centroids, rng)
		// Convergence check.
		moved := 0.0
		for j := range centroids {
			moved = math.Max(moved, sqDist(centroids[j], prev[j]))
		}
		if moved <= 0 {
			break
		}
	}
	// Final assignment against the converged centroids.
	for i, p := range points {
		assign[i] = nearest(p, centroids)
	}
	return &Result{
		Assignments: assign,
		Centroids:   centroids,
		Iterations:  iter,
	}, nil
}

// refTrivialResult handles K ≥ n: each point becomes its own cluster, so the
// result has n centroids (one per point).
func refTrivialResult(points [][]float64) *Result {
	n := len(points)
	centroids := make([][]float64, n)
	assign := make([]int, n)
	for i, p := range points {
		c := make([]float64, len(p))
		copy(c, p)
		centroids[i] = c
		assign[i] = i
	}
	return &Result{Assignments: assign, Centroids: centroids}
}

// refSeedPlusPlus implements the k-means++ seeding of Arthur & Vassilvitskii:
// the first centroid is uniform, each next centroid is sampled proportional
// to the squared distance to the closest already-chosen centroid.
func refSeedPlusPlus(points [][]float64, k int, rng *rand.Rand) [][]float64 {
	n := len(points)
	centroids := make([][]float64, 0, k)
	first := points[rng.IntN(n)]
	centroids = append(centroids, cloneVec(first))

	d2 := make([]float64, n)
	for i, p := range points {
		d2[i] = sqDist(p, centroids[0])
	}
	for len(centroids) < k {
		total := 0.0
		for _, v := range d2 {
			total += v
		}
		var idx int
		if total <= 0 {
			// All points coincide with existing centroids; pick uniformly.
			idx = rng.IntN(n)
		} else {
			r := rng.Float64() * total
			acc := 0.0
			idx = n - 1
			for i, v := range d2 {
				acc += v
				if acc >= r {
					idx = i
					break
				}
			}
		}
		c := cloneVec(points[idx])
		centroids = append(centroids, c)
		for i, p := range points {
			if d := sqDist(p, c); d < d2[i] {
				d2[i] = d
			}
		}
	}
	return centroids
}

func refRecompute(points [][]float64, assign []int, k, d int) [][]float64 {
	sums := make([][]float64, k)
	counts := make([]int, k)
	for j := range sums {
		sums[j] = make([]float64, d)
	}
	for i, p := range points {
		j := assign[i]
		counts[j]++
		for t, v := range p {
			sums[j][t] += v
		}
	}
	for j := range sums {
		if counts[j] == 0 {
			continue // repaired by refRepairEmpty
		}
		inv := 1 / float64(counts[j])
		for t := range sums[j] {
			sums[j][t] *= inv
		}
	}
	return sums
}

// refRepairEmpty relocates centroids of empty clusters to the point that is
// currently farthest from its assigned centroid, the standard strategy to
// keep exactly K non-empty clusters.
func refRepairEmpty(points [][]float64, assign []int, centroids [][]float64, rng *rand.Rand) {
	counts := make([]int, len(centroids))
	for _, a := range assign {
		counts[a]++
	}
	for j := range centroids {
		if counts[j] > 0 {
			continue
		}
		far, farDist := -1, -1.0
		for i, p := range points {
			if counts[assign[i]] <= 1 {
				continue // do not empty another cluster
			}
			if d := sqDist(p, centroids[assign[i]]); d > farDist {
				far, farDist = i, d
			}
		}
		if far < 0 {
			far = rng.IntN(len(points))
		}
		counts[assign[far]]--
		assign[far] = j
		counts[j] = 1
		centroids[j] = cloneVec(points[far])
	}
}

// refNearestTwo scans the k row-major centroids in cents for point p with
// float compares: the strict-<, ascending-index nearest centroid, its sqDist,
// and the smallest sqDist among the others (+Inf when there is none). A NaN
// distance fails both tests, so it never wins and is not counted.
func refNearestTwo(p, cents []float64, k int) (best int, bestD, otherD float64) {
	d := len(p)
	bestD, otherD = math.Inf(1), math.Inf(1)
	for j := 0; j < k; j++ {
		dd := sqDist(p, cents[j*d:(j+1)*d])
		if dd < bestD {
			otherD = bestD
			best, bestD = j, dd
		} else if dd < otherD {
			otherD = dd
		}
	}
	return best, bestD, otherD
}
