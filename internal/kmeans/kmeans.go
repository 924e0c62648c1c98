// Package kmeans implements Lloyd's K-means clustering with k-means++
// seeding. It is the clustering primitive used by the dynamic cluster tracker
// (per time step, §V-B of the paper) and by the offline "static clustering"
// baseline (whole-series vectors).
//
// Points are d-dimensional float64 vectors; d may be 1, which is the paper's
// default configuration (independent scalar clustering per resource type).
// All randomness is supplied by the caller so results are reproducible.
package kmeans

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"orcf/internal/mat"
)

// ErrBadInput is returned for invalid K, empty data, or ragged dimensions.
var ErrBadInput = errors.New("kmeans: invalid input")

// Result holds the outcome of a K-means run.
type Result struct {
	// Assignments maps each input point index to its cluster index in [0,K).
	Assignments []int
	// Centroids holds the K cluster centers.
	Centroids [][]float64
	// Iterations is the number of Lloyd iterations executed.
	Iterations int
}

// Config controls a K-means run.
type Config struct {
	// K is the number of clusters; required, 1 ≤ K.
	K int
	// MaxIterations bounds Lloyd iterations. Zero means the default of 50;
	// negative is rejected.
	MaxIterations int
}

func (c Config) withDefaults() Config {
	if c.MaxIterations == 0 {
		c.MaxIterations = 50
	}
	return c
}

// Run clusters points into cfg.K clusters. When K ≥ len(points) every point
// becomes (or shares) its own centroid. The rng is used for k-means++
// seeding and empty-cluster repair.
//
// Run packs the points into a flat struct-of-arrays frame and delegates to a
// fresh Runner; callers on a hot path should hold a Runner directly to reuse
// its scratch. The results are bit-identical to the historical row-pointer
// implementation (pinned by TestRunnerMatchesReferenceExactly).
func Run(points [][]float64, cfg Config, rng *rand.Rand) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := validate(points, cfg); err != nil {
		return nil, err
	}
	n, d := len(points), len(points[0])
	f := mat.NewFrame(n, d)
	for i, p := range points {
		f.SetRow(i, p)
	}
	r := NewRunner()
	assign := make([]int, n)
	if err := r.RunFlat(f.Data(), n, d, cfg, rng, assign); err != nil {
		return nil, err
	}
	centroids := make([][]float64, r.NumCentroids())
	for j := range centroids {
		centroids[j] = cloneVec(r.Centroid(j))
	}
	return &Result{
		Assignments: assign,
		Centroids:   centroids,
		Iterations:  r.Iterations(),
	}, nil
}

func validate(points [][]float64, cfg Config) error {
	if cfg.K < 1 {
		return fmt.Errorf("kmeans: K = %d: %w", cfg.K, ErrBadInput)
	}
	if len(points) == 0 {
		return fmt.Errorf("kmeans: no points: %w", ErrBadInput)
	}
	d := len(points[0])
	if d == 0 {
		return fmt.Errorf("kmeans: zero-dimensional points: %w", ErrBadInput)
	}
	for i, p := range points {
		if len(p) != d {
			return fmt.Errorf("kmeans: point %d has dim %d, want %d: %w", i, len(p), d, ErrBadInput)
		}
	}
	return nil
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

func cloneVec(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

// SqDist exposes squared Euclidean distance for reuse by callers.
func SqDist(a, b []float64) float64 { return sqDist(a, b) }
