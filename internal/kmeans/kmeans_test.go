package kmeans

import (
	"errors"
	"math"
	mrand "math/rand"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func testRNG(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, seed^0xdeadbeef)) }

func TestRunSeparatesObviousClusters(t *testing.T) {
	t.Parallel()
	// Two tight groups far apart on the real line.
	points := [][]float64{
		{0.01}, {0.02}, {0.03}, {0.0},
		{0.99}, {0.98}, {1.0}, {0.97},
	}
	res, err := Run(points, Config{K: 2}, testRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	low := res.Assignments[0]
	for i := 0; i < 4; i++ {
		if res.Assignments[i] != low {
			t.Fatalf("low group split: %v", res.Assignments)
		}
	}
	high := res.Assignments[4]
	if high == low {
		t.Fatalf("groups merged: %v", res.Assignments)
	}
	for i := 4; i < 8; i++ {
		if res.Assignments[i] != high {
			t.Fatalf("high group split: %v", res.Assignments)
		}
	}
	// Centroids near 0.015 and 0.985.
	lo, hi := res.Centroids[low][0], res.Centroids[high][0]
	if math.Abs(lo-0.015) > 0.01 || math.Abs(hi-0.985) > 0.01 {
		t.Fatalf("centroids %v, %v", lo, hi)
	}
}

func TestRunVectorPoints(t *testing.T) {
	t.Parallel()
	points := [][]float64{
		{0, 0}, {0.1, 0}, {0, 0.1},
		{5, 5}, {5.1, 5}, {5, 5.1},
		{-5, 5}, {-5.1, 5}, {-5, 5.1},
	}
	res, err := Run(points, Config{K: 3}, testRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centroids) != 3 {
		t.Fatalf("got %d centroids, want 3", len(res.Centroids))
	}
	// Each group of three shares a label and the labels are distinct.
	labels := map[int]bool{}
	for g := 0; g < 3; g++ {
		l := res.Assignments[3*g]
		for i := 3 * g; i < 3*g+3; i++ {
			if res.Assignments[i] != l {
				t.Fatalf("group %d split: %v", g, res.Assignments)
			}
		}
		labels[l] = true
	}
	if len(labels) != 3 {
		t.Fatalf("clusters merged: %v", res.Assignments)
	}
}

func TestRunKGreaterOrEqualN(t *testing.T) {
	t.Parallel()
	points := [][]float64{{1}, {2}, {3}}
	res, err := Run(points, Config{K: 5}, testRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centroids) != 3 {
		t.Fatalf("centroids = %d, want 3 (capped at n)", len(res.Centroids))
	}
	for i := range points {
		if res.Assignments[i] != i {
			t.Fatalf("assignment %v, want identity", res.Assignments)
		}
	}
}

func TestRunErrors(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name   string
		points [][]float64
		cfg    Config
	}{
		{"zero K", [][]float64{{1}}, Config{K: 0}},
		{"no points", nil, Config{K: 2}},
		{"ragged", [][]float64{{1}, {1, 2}}, Config{K: 1}},
		{"zero dim", [][]float64{{}}, Config{K: 1}},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			if _, err := Run(tt.points, tt.cfg, testRNG(4)); !errors.Is(err, ErrBadInput) {
				t.Fatalf("want ErrBadInput, got %v", err)
			}
		})
	}
}

func TestRunDeterministicWithSameSeed(t *testing.T) {
	t.Parallel()
	rng := testRNG(9)
	points := make([][]float64, 200)
	for i := range points {
		points[i] = []float64{rng.Float64(), rng.Float64()}
	}
	r1, err := Run(points, Config{K: 4}, testRNG(100))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(points, Config{K: 4}, testRNG(100))
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Assignments {
		if r1.Assignments[i] != r2.Assignments[i] {
			t.Fatal("same seed produced different assignments")
		}
	}
}

func TestRunAllIdenticalPoints(t *testing.T) {
	t.Parallel()
	points := make([][]float64, 10)
	for i := range points {
		points[i] = []float64{0.5}
	}
	res, err := Run(points, Config{K: 3}, testRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	if e := sse(points, res); e != 0 {
		t.Fatalf("identical points sum of squared distances = %v, want 0", e)
	}
}

func TestNoEmptyClusters(t *testing.T) {
	t.Parallel()
	f := func(seed uint64) bool {
		rng := testRNG(seed)
		n := 10 + int(seed%40)
		k := 2 + int(seed%5)
		points := make([][]float64, n)
		for i := range points {
			points[i] = []float64{rng.Float64()}
		}
		res, err := Run(points, Config{K: k}, rng)
		if err != nil {
			return false
		}
		counts := make([]int, len(res.Centroids))
		for _, a := range res.Assignments {
			counts[a]++
		}
		for _, c := range counts {
			if c == 0 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: mrand.New(mrand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: every point's assigned centroid is the nearest one.
func TestAssignmentsAreNearest(t *testing.T) {
	t.Parallel()
	f := func(seed uint64) bool {
		rng := testRNG(seed + 1000)
		n := 20 + int(seed%30)
		points := make([][]float64, n)
		for i := range points {
			points[i] = []float64{rng.Float64(), rng.Float64()}
		}
		res, err := Run(points, Config{K: 3}, rng)
		if err != nil {
			return false
		}
		for i, p := range points {
			best := Nearest(p, res.Centroids)
			if SqDist(p, res.Centroids[best]) < SqDist(p, res.Centroids[res.Assignments[i]])-1e-12 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: mrand.New(mrand.NewSource(13))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestInertiaDecreasesWithK(t *testing.T) {
	t.Parallel()
	rng := testRNG(77)
	points := make([][]float64, 300)
	for i := range points {
		points[i] = []float64{rng.NormFloat64()}
	}
	var prev = math.Inf(1)
	for _, k := range []int{1, 2, 4, 8, 16} {
		res, err := Run(points, Config{K: k}, testRNG(42))
		if err != nil {
			t.Fatal(err)
		}
		// Inertia should broadly decrease as K grows (allow tiny slack for
		// local optima of Lloyd's algorithm).
		inertia := sse(points, res)
		if inertia > prev*1.05 {
			t.Fatalf("inertia grew sharply at K=%d: %v > %v", k, inertia, prev)
		}
		prev = inertia
	}
}

// sse is the inertia of a run: the sum of the points' squared distances to
// their assigned centroids.
func sse(points [][]float64, res *Result) float64 {
	var sum float64
	for i, p := range points {
		sum += SqDist(p, res.Centroids[res.Assignments[i]])
	}
	return sum
}

func TestNearestAndSqDist(t *testing.T) {
	t.Parallel()
	cents := [][]float64{{0}, {1}, {2}}
	if got := Nearest([]float64{1.4}, cents); got != 1 {
		t.Fatalf("Nearest = %d, want 1", got)
	}
	if got := SqDist([]float64{0, 3}, []float64{4, 0}); got != 25 {
		t.Fatalf("SqDist = %v, want 25", got)
	}
}
