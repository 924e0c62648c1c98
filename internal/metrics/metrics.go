// Package metrics implements the paper's evaluation aggregates: the
// time-averaged RMSE over T steps (eq. 4) of per-step RMSE(t,h) values
// (eq. 3) and the combined objective over horizons of eq. 5.
package metrics

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadInput reports mismatched vector shapes.
var ErrBadInput = errors.New("metrics: invalid input")

// Accumulator aggregates per-step RMSE values into the time average of
// eq. (4): the square root of the mean squared per-step RMSE.
type Accumulator struct {
	sumSq float64
	n     int
}

// Add records one per-step RMSE value.
func (a *Accumulator) Add(stepRMSE float64) {
	a.sumSq += stepRMSE * stepRMSE
	a.n++
}

// AddSquared records a pre-squared error directly.
func (a *Accumulator) AddSquared(sq float64) {
	a.sumSq += sq
	a.n++
}

// Value returns the time-averaged RMSE, or NaN before any observation.
func (a *Accumulator) Value() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return math.Sqrt(a.sumSq / float64(a.n))
}

// Count returns the number of accumulated steps.
func (a *Accumulator) Count() int { return a.n }

// HorizonSet tracks one Accumulator per forecast horizon h ∈ [0, H] and
// combines them into the objective of eq. (5).
type HorizonSet struct {
	accs []Accumulator
}

// NewHorizonSet creates accumulators for horizons 0..maxH inclusive.
func NewHorizonSet(maxH int) (*HorizonSet, error) {
	if maxH < 0 {
		return nil, fmt.Errorf("metrics: maxH %d: %w", maxH, ErrBadInput)
	}
	return &HorizonSet{accs: make([]Accumulator, maxH+1)}, nil
}

// Add records a per-step RMSE for horizon h.
func (s *HorizonSet) Add(h int, stepRMSE float64) error {
	if h < 0 || h >= len(s.accs) {
		return fmt.Errorf("metrics: horizon %d outside [0,%d]: %w", h, len(s.accs)-1, ErrBadInput)
	}
	s.accs[h].Add(stepRMSE)
	return nil
}

// At returns the time-averaged RMSE for horizon h.
func (s *HorizonSet) At(h int) float64 {
	if h < 0 || h >= len(s.accs) {
		return math.NaN()
	}
	return s.accs[h].Value()
}

// Objective combines all horizons into eq. (5): the root of the mean (over
// h ∈ [0,H]) squared time-averaged RMSE. Horizons with no observations are
// skipped.
func (s *HorizonSet) Objective() float64 {
	var sum float64
	var n int
	for h := range s.accs {
		v := s.accs[h].Value()
		if math.IsNaN(v) {
			continue
		}
		sum += v * v
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return math.Sqrt(sum / float64(n))
}
