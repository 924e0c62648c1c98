// Package sim drives a core.System over a trace.Dataset and scores it
// against ground truth: RMSE per forecast horizon (eqs. 3–4), the h=0
// transmission-only error, the intermediate clustering RMSE of §VI-C, and
// realized transmission frequencies. The evaluator can see the future (it
// holds the whole trace); the system under test cannot.
package sim

import (
	"errors"
	"fmt"
	"math"

	"orcf/internal/core"
	"orcf/internal/metrics"
	"orcf/internal/trace"
)

// ErrBadConfig reports invalid runner options.
var ErrBadConfig = errors.New("sim: invalid configuration")

// Config controls a simulation run.
type Config struct {
	// Horizons lists the forecast steps h ≥ 1 to score (e.g. 1, 5, 25, 50).
	// Empty means no forecasting evaluation (collection-only run).
	Horizons []int
	// ForecastEvery throttles how often forecasts are produced and scored
	// once the system is ready (1 = every step). Zero means 1.
	ForecastEvery int
	// ScoreIntermediate enables the §VI-C intermediate clustering RMSE.
	ScoreIntermediate bool
}

func (c Config) withDefaults() Config {
	if c.ForecastEvery == 0 {
		c.ForecastEvery = 1
	}
	return c
}

// ResourceResult aggregates scores for one resource dimension.
type ResourceResult struct {
	// Resource names the dimension (e.g. "cpu").
	Resource string
	// Horizon holds time-averaged RMSE per scored horizon; index 0 is the
	// h=0 transmission-only error.
	Horizon *metrics.HorizonSet
	// Intermediate is the time-averaged intermediate RMSE (if enabled).
	Intermediate metrics.Accumulator
}

// Result is the outcome of one run.
type Result struct {
	// PerResource holds one entry per resource dimension.
	PerResource []ResourceResult
	// MeanFrequency is the average realized transmission frequency.
	MeanFrequency float64
	// Steps is the number of simulated steps.
	Steps int
	// ForecastsScored counts forecast evaluations.
	ForecastsScored int
}

// RMSEAt returns the time-averaged RMSE at horizon h for a resource.
func (r *Result) RMSEAt(resource, h int) float64 {
	if resource < 0 || resource >= len(r.PerResource) {
		return 0
	}
	return r.PerResource[resource].Horizon.At(h)
}

// Run drives the system over the dataset.
func Run(sys *core.System, ds *trace.Dataset, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if sys == nil || ds == nil {
		return nil, fmt.Errorf("sim: nil system or dataset: %w", ErrBadConfig)
	}
	maxH := 0
	for _, h := range cfg.Horizons {
		if h < 1 {
			return nil, fmt.Errorf("sim: horizon %d < 1: %w", h, ErrBadConfig)
		}
		if h > maxH {
			maxH = h
		}
	}
	steps := ds.Steps()
	nRes := ds.NumResources()

	res := &Result{PerResource: make([]ResourceResult, nRes)}
	for r := 0; r < nRes; r++ {
		hs, err := metrics.NewHorizonSet(maxH)
		if err != nil {
			return nil, fmt.Errorf("sim: horizon set: %w", err)
		}
		res.PerResource[r] = ResourceResult{Resource: ds.Resources[r], Horizon: hs}
	}

	// z mirrors the store: a step changes only the rows it flags
	// Transmitted (first reports included), so one copy before the loop
	// and the dataset's own rows after keep it current without a per-step
	// copy of the fleet. The dataset rows are only read.
	z := sys.Stored()
	for t := 1; t <= steps; t++ {
		x := ds.Data[t-1]
		stepRes, err := sys.Step(x)
		if err != nil {
			return nil, fmt.Errorf("sim: step %d: %w", t, err)
		}
		for i, sent := range stepRes.Transmitted {
			if sent {
				z[i] = x[i]
			}
		}

		// h=0 error: stored vs true, per resource.
		for r := 0; r < nRes; r++ {
			var sq float64
			for i := range x {
				d := z[i][r] - x[i][r]
				sq += d * d
			}
			if err := res.PerResource[r].Horizon.Add(0, sqrtMean(sq, len(x))); err != nil {
				return nil, err
			}
		}

		// Intermediate clustering RMSE per resource.
		if cfg.ScoreIntermediate {
			if err := scoreIntermediate(res, stepRes, x); err != nil {
				return nil, fmt.Errorf("sim: step %d: %w", t, err)
			}
		}

		// Forecast scoring.
		if maxH > 0 && sys.Ready() && t%cfg.ForecastEvery == 0 && t+1 <= steps {
			f, err := sys.Forecast(min(maxH, steps-t))
			if err != nil {
				return nil, fmt.Errorf("sim: forecast at %d: %w", t, err)
			}
			for _, h := range cfg.Horizons {
				if t+h > steps {
					continue
				}
				truth := ds.Data[t+h-1]
				pred := f[h-1]
				for r := 0; r < nRes; r++ {
					var sq float64
					for i := range truth {
						d := pred[i][r] - truth[i][r]
						sq += d * d
					}
					if err := res.PerResource[r].Horizon.Add(h, sqrtMean(sq, len(truth))); err != nil {
						return nil, err
					}
				}
			}
			res.ForecastsScored++
		}
		res.Steps = t
	}
	res.MeanFrequency = sys.MeanFrequency()
	return res, nil
}

// scoreIntermediate adds the per-resource intermediate RMSE for one step.
// With scalar clustering there is one tracker per resource; with joint
// clustering the single tracker's centroids carry all dimensions.
func scoreIntermediate(res *Result, stepRes *core.StepResult, x [][]float64) error {
	nRes := len(res.PerResource)
	joint := len(stepRes.PerResource) == 1 && nRes > 1
	for r := 0; r < nRes; r++ {
		tr := r
		dim := 0
		if joint {
			tr = 0
			dim = r
		}
		ps := stepRes.PerResource[tr]
		var sq float64
		for i := range x {
			c := ps.Centroids[ps.Assignments[i]]
			d := c[dim] - x[i][r]
			sq += d * d
		}
		res.PerResource[r].Intermediate.AddSquared(sq / float64(len(x)))
	}
	return nil
}

func sqrtMean(sumSq float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return math.Sqrt(sumSq / float64(n))
}
