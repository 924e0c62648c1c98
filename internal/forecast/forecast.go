// Package forecast implements the temporal-forecasting layer of §V-C: model
// interfaces and implementations (sample-and-hold, long-term-statistics
// baseline, AR, seasonal ARIMA with AICc grid search, and a two-layer LSTM),
// plus the per-cluster Ensemble that manages the initial collection phase and
// periodic retraining described in §VI-A3.
//
// Models forecast a univariate series — in the paper, one centroid series per
// (cluster, resource type) pair. All models are deterministic given their
// configuration and (for the LSTM) injected RNG seed.
package forecast

import (
	"errors"
	"fmt"
)

// ErrNotFitted is returned by Forecast before a successful Fit.
var ErrNotFitted = errors.New("forecast: model not fitted")

// ErrBadInput reports invalid series or horizons.
var ErrBadInput = errors.New("forecast: invalid input")

// Model is a univariate time-series forecaster.
//
// The lifecycle mirrors §V-C: Fit trains (or retrains) on history; Update
// feeds each new observation to the model's transient state between
// retrainings; Forecast extrapolates h steps past the most recent
// observation.
type Model interface {
	// Fit trains the model on the series (oldest first). It replaces any
	// previous fit and transient state.
	Fit(series []float64) error
	// Update appends one observation to the model's transient state without
	// refitting.
	Update(y float64)
	// Forecast returns forecasts for steps +1 … +h relative to the last
	// observation seen via Fit or Update.
	Forecast(h int) ([]float64, error)
	// Name identifies the model in experiment output.
	Name() string
}

// Builder constructs a fresh model instance; the Ensemble uses one per
// (cluster, dimension) pair.
type Builder func() Model

// SampleAndHold predicts that the series stays at its most recent value — the
// paper's simplest baseline ("simply uses the cluster centroid values at time
// step t as the predicted future values").
type SampleAndHold struct {
	last   float64
	fitted bool
}

var _ Model = (*SampleAndHold)(nil)

// NewSampleAndHold returns the sample-and-hold baseline.
func NewSampleAndHold() *SampleAndHold { return &SampleAndHold{} }

// Fit implements Model.
func (s *SampleAndHold) Fit(series []float64) error {
	if len(series) == 0 {
		return fmt.Errorf("forecast: empty series: %w", ErrBadInput)
	}
	s.last = series[len(series)-1]
	s.fitted = true
	return nil
}

// Update implements Model.
func (s *SampleAndHold) Update(y float64) {
	s.last = y
	s.fitted = true
}

// Forecast implements Model.
func (s *SampleAndHold) Forecast(h int) ([]float64, error) {
	if !s.fitted {
		return nil, ErrNotFitted
	}
	if h < 1 {
		return nil, fmt.Errorf("forecast: horizon %d < 1: %w", h, ErrBadInput)
	}
	out := make([]float64, h)
	for i := range out {
		out[i] = s.last
	}
	return out, nil
}

// Name implements Model.
func (s *SampleAndHold) Name() string { return "sample-and-hold" }

// HistoricalMean predicts the running mean of everything observed so far. It
// realizes the paper's "long-term statistics only" reference mechanism, whose
// error is upper-bounded by the standard deviation of the data (§VI-D1).
type HistoricalMean struct {
	sum float64
	n   int
}

var _ Model = (*HistoricalMean)(nil)

// NewHistoricalMean returns the long-term-statistics baseline.
func NewHistoricalMean() *HistoricalMean { return &HistoricalMean{} }

// Fit implements Model.
func (m *HistoricalMean) Fit(series []float64) error {
	if len(series) == 0 {
		return fmt.Errorf("forecast: empty series: %w", ErrBadInput)
	}
	m.sum, m.n = 0, 0
	for _, y := range series {
		m.Update(y)
	}
	return nil
}

// Update implements Model.
func (m *HistoricalMean) Update(y float64) {
	m.sum += y
	m.n++
}

// Forecast implements Model.
func (m *HistoricalMean) Forecast(h int) ([]float64, error) {
	if m.n == 0 {
		return nil, ErrNotFitted
	}
	if h < 1 {
		return nil, fmt.Errorf("forecast: horizon %d < 1: %w", h, ErrBadInput)
	}
	mean := m.sum / float64(m.n)
	out := make([]float64, h)
	for i := range out {
		out[i] = mean
	}
	return out, nil
}

// Name implements Model.
func (m *HistoricalMean) Name() string { return "historical-mean" }
