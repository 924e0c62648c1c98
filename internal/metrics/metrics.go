// Package metrics implements the paper's evaluation aggregate: the
// time-averaged RMSE over T steps (eq. 4) of per-step RMSE(t,h) values
// (eq. 3), one per forecast horizon.
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

// HorizonSet tracks one Accumulator per forecast horizon h ∈ [0, H].
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
