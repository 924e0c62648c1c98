package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"orcf/internal/forecast"
)

// churningTrace builds N nodes in two moving groups whose levels cross over
// time, so coherent cluster identity matters for forecasting.
func churningTrace(steps, n int, seed uint64) [][][]float64 {
	rng := rand.New(rand.NewPCG(seed, seed^77))
	out := make([][][]float64, steps)
	for t := 0; t < steps; t++ {
		lo := 0.25 + 0.15*math.Sin(float64(t)/30)
		hi := 0.75 + 0.15*math.Cos(float64(t)/40)
		row := make([][]float64, n)
		for i := 0; i < n; i++ {
			level := lo
			if i >= n/2 {
				level = hi
			}
			row[i] = []float64{level + 0.01*rng.NormFloat64()}
		}
		out[t] = row
	}
	return out
}

func runRMSE(t *testing.T, cfg Config, steps [][][]float64, h int) float64 {
	t.Helper()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sumSq float64
	var count int
	for ti, x := range steps {
		if _, err := sys.Step(x); err != nil {
			t.Fatal(err)
		}
		if !sys.Ready() || ti+h >= len(steps) {
			continue
		}
		f, err := sys.Forecast(h)
		if err != nil {
			t.Fatal(err)
		}
		truth := steps[ti+h]
		for i := range truth {
			d := f[h-1][i][0] - truth[i][0]
			sumSq += d * d
			count++
		}
	}
	if count == 0 {
		t.Fatal("no forecasts scored")
	}
	return math.Sqrt(sumSq / float64(count))
}

// TestDisableMatchingDegradesForecasts: without the Hungarian re-indexing
// the centroid series scramble across clusters and forecasting degrades —
// the justification for §V-B.
func TestDisableMatchingDegradesForecasts(t *testing.T) {
	t.Parallel()
	steps := churningTrace(160, 16, 5)
	base := Config{
		Nodes: 16, K: 2, InitialCollection: 40, RetrainEvery: 500,
		Policy: alwaysPolicy, Seed: 2,
		Zoo: forecast.Pinned(func() forecast.Model { return forecast.NewSampleAndHold() }),
	}
	withMatching := runRMSE(t, base, steps, 3)
	noMatching := base
	noMatching.DisableMatching = true
	withoutMatching := runRMSE(t, noMatching, steps, 3)
	if withMatching >= withoutMatching {
		t.Fatalf("matching RMSE %v should beat no-matching %v", withMatching, withoutMatching)
	}
	// The gap should be substantial: raw K-means labels are arbitrary.
	if withoutMatching < withMatching*1.5 {
		t.Logf("note: no-matching only %vx worse (%v vs %v)",
			withoutMatching/withMatching, withoutMatching, withMatching)
	}
}

// TestDisableAlphaClampChangesOffsets: with the α-clamp off, a node whose
// stored value sits outside its forecast cluster's cell receives the raw
// offset. The flag must actually change behaviour.
func TestDisableAlphaClampChangesOffsets(t *testing.T) {
	t.Parallel()
	// Node 3 oscillates between the two groups so its mode cluster and its
	// instantaneous position disagree regularly.
	mk := func(t int) [][]float64 {
		x := [][]float64{{0.1}, {0.12}, {0.14}, {0.5}, {0.86}, {0.88}, {0.9}, {0.92}}
		if t%2 == 0 {
			x[3][0] = 0.75
		}
		return x
	}
	build := func(disable bool) float64 {
		sys, err := NewSystem(Config{
			Nodes: 8, K: 2, InitialCollection: 10, MPrime: 4,
			Policy: alwaysPolicy, Seed: 3, DisableAlphaClamp: disable,
		})
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 20; step++ {
			if _, err := sys.Step(mk(step)); err != nil {
				t.Fatal(err)
			}
		}
		f, err := sys.Forecast(1)
		if err != nil {
			t.Fatal(err)
		}
		return f[0][3][0]
	}
	clamped := build(false)
	raw := build(true)
	if clamped == raw {
		t.Fatalf("α-clamp flag had no effect (both %v)", clamped)
	}
}

func TestStepRejectsNaNAndInf(t *testing.T) {
	t.Parallel()
	sys, err := NewSystem(Config{Nodes: 2, K: 1, Policy: alwaysPolicy})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Step([][]float64{{math.NaN()}, {0.5}}); err == nil {
		t.Fatal("NaN measurement must be rejected")
	}
	if _, err := sys.Step([][]float64{{math.Inf(1)}, {0.5}}); err == nil {
		t.Fatal("Inf measurement must be rejected")
	}
}
