package forecast

import (
	"fmt"
	"math"
)

// SES is simple exponential smoothing: level ℓ_t = α·y_t + (1−α)·ℓ_{t−1},
// forecasting a flat continuation of the level. It is the cheapest model
// that adapts to level shifts, sitting between sample-and-hold and AR in
// both cost and quality.
type SES struct {
	alpha  float64
	level  float64
	fitted bool
}

var _ Model = (*SES)(nil)

// NewSES returns a simple-exponential-smoothing model. alpha in (0,1];
// zero selects 0.3.
func NewSES(alpha float64) (*SES, error) {
	if alpha == 0 {
		alpha = 0.3
	}
	if alpha <= 0 || alpha > 1 || math.IsNaN(alpha) {
		return nil, fmt.Errorf("forecast: SES alpha %v outside (0,1]: %w", alpha, ErrBadInput)
	}
	return &SES{alpha: alpha}, nil
}

// Fit implements Model.
func (s *SES) Fit(series []float64) error {
	if len(series) == 0 {
		return fmt.Errorf("forecast: empty series: %w", ErrBadInput)
	}
	s.level = series[0]
	for _, y := range series[1:] {
		s.level = s.alpha*y + (1-s.alpha)*s.level
	}
	s.fitted = true
	return nil
}

// Update implements Model.
func (s *SES) Update(y float64) {
	if !s.fitted {
		s.level = y
		s.fitted = true
		return
	}
	s.level = s.alpha*y + (1-s.alpha)*s.level
}

// Forecast implements Model.
func (s *SES) Forecast(h int) ([]float64, error) {
	if !s.fitted {
		return nil, ErrNotFitted
	}
	if h < 1 {
		return nil, fmt.Errorf("forecast: horizon %d < 1: %w", h, ErrBadInput)
	}
	out := make([]float64, h)
	for i := range out {
		out[i] = s.level
	}
	return out, nil
}

// Name implements Model.
func (s *SES) Name() string { return fmt.Sprintf("ses(%.2g)", s.alpha) }

// Holt is double exponential smoothing (Holt's linear trend): it tracks a
// level and a trend and forecasts their linear continuation, optionally
// damped. Damping (φ < 1) prevents the unbounded extrapolation that plain
// Holt exhibits at long horizons on bounded utilization data.
type Holt struct {
	alpha, beta, phi float64
	level, trend     float64
	n                int
}

var _ Model = (*Holt)(nil)

// NewHolt returns a damped Holt's linear-trend model. Zero values select
// alpha 0.3, beta 0.1, phi 0.98; phi = 1 gives the undamped variant.
func NewHolt(alpha, beta, phi float64) (*Holt, error) {
	if alpha == 0 {
		alpha = 0.3
	}
	if beta == 0 {
		beta = 0.1
	}
	if phi == 0 {
		phi = 0.98
	}
	if alpha <= 0 || alpha > 1 || beta <= 0 || beta > 1 || phi <= 0 || phi > 1 {
		return nil, fmt.Errorf("forecast: holt parameters α=%v β=%v φ=%v invalid: %w",
			alpha, beta, phi, ErrBadInput)
	}
	return &Holt{alpha: alpha, beta: beta, phi: phi}, nil
}

// MinObservations is the shortest series Fit accepts.
func (m *Holt) MinObservations() int { return 2 }

// Fit implements Model.
func (m *Holt) Fit(series []float64) error {
	if len(series) < m.MinObservations() {
		return fmt.Errorf("forecast: holt needs ≥ %d observations, got %d: %w",
			m.MinObservations(), len(series), ErrBadInput)
	}
	m.level = series[0]
	m.trend = series[1] - series[0]
	m.n = 1
	for _, y := range series[1:] {
		m.step(y)
	}
	return nil
}

func (m *Holt) step(y float64) {
	prevLevel := m.level
	m.level = m.alpha*y + (1-m.alpha)*(m.level+m.phi*m.trend)
	m.trend = m.beta*(m.level-prevLevel) + (1-m.beta)*m.phi*m.trend
	m.n++
}

// Update implements Model.
func (m *Holt) Update(y float64) {
	if m.n == 0 {
		m.level = y
		m.n = 1
		return
	}
	m.step(y)
}

// Forecast implements Model: ŷ_{t+h} = ℓ + (φ + φ² + … + φ^h)·b.
func (m *Holt) Forecast(h int) ([]float64, error) {
	if m.n < 2 {
		return nil, ErrNotFitted
	}
	if h < 1 {
		return nil, fmt.Errorf("forecast: horizon %d < 1: %w", h, ErrBadInput)
	}
	out := make([]float64, h)
	damp := 0.0
	phiPow := 1.0
	for i := range out {
		phiPow *= m.phi
		damp += phiPow
		out[i] = m.level + damp*m.trend
	}
	return out, nil
}

// Name implements Model.
func (m *Holt) Name() string { return "holt" }

// HoltWinters is triple exponential smoothing with additive seasonality:
// level, trend, and a seasonal index per phase of the period. It captures
// the diurnal cycles of utilization data at a tiny fraction of ARIMA/LSTM
// training cost.
type HoltWinters struct {
	alpha, beta, gamma float64
	period             int
	level, trend       float64
	seasonal           []float64
	phase              int // index into seasonal for the *next* observation
	n                  int
}

var _ Model = (*HoltWinters)(nil)

// NewHoltWinters returns an additive Holt-Winters model with the given
// season length (e.g. 288 for daily cycles of 5-minute samples), smoothing
// with alpha 0.3, beta 0.05 and gamma 0.1.
func NewHoltWinters(period int) (*HoltWinters, error) {
	if period < 2 {
		return nil, fmt.Errorf("forecast: holt-winters period %d < 2: %w", period, ErrBadInput)
	}
	return &HoltWinters{alpha: 0.3, beta: 0.05, gamma: 0.1, period: period}, nil
}

// MinObservations is the shortest series Fit accepts: two full seasons.
func (m *HoltWinters) MinObservations() int { return 2 * m.period }

// Fit implements Model.
func (m *HoltWinters) Fit(series []float64) error {
	if len(series) < m.MinObservations() {
		return fmt.Errorf("forecast: holt-winters needs ≥ %d observations, got %d: %w",
			m.MinObservations(), len(series), ErrBadInput)
	}
	// Initialize from the first two seasons: level = mean of season one,
	// trend = mean per-step difference between seasons, seasonal indices =
	// deviations of season one from its mean.
	var mean1, mean2 float64
	for i := 0; i < m.period; i++ {
		mean1 += series[i]
		mean2 += series[m.period+i]
	}
	mean1 /= float64(m.period)
	mean2 /= float64(m.period)
	m.level = mean1
	m.trend = (mean2 - mean1) / float64(m.period)
	m.seasonal = make([]float64, m.period)
	for i := 0; i < m.period; i++ {
		m.seasonal[i] = series[i] - mean1
	}
	m.phase = 0
	m.n = m.period
	for _, y := range series[m.period:] {
		m.step(y)
	}
	return nil
}

func (m *HoltWinters) step(y float64) {
	s := m.seasonal[m.phase]
	prevLevel := m.level
	m.level = m.alpha*(y-s) + (1-m.alpha)*(m.level+m.trend)
	m.trend = m.beta*(m.level-prevLevel) + (1-m.beta)*m.trend
	m.seasonal[m.phase] = m.gamma*(y-m.level) + (1-m.gamma)*s
	m.phase = (m.phase + 1) % m.period
	m.n++
}

// Update implements Model.
func (m *HoltWinters) Update(y float64) {
	if m.seasonal == nil {
		return // cannot update before Fit establishes the seasonal state
	}
	m.step(y)
}

// Forecast implements Model.
func (m *HoltWinters) Forecast(h int) ([]float64, error) {
	if m.seasonal == nil {
		return nil, ErrNotFitted
	}
	if h < 1 {
		return nil, fmt.Errorf("forecast: horizon %d < 1: %w", h, ErrBadInput)
	}
	out := make([]float64, h)
	for i := range out {
		phase := (m.phase + i) % m.period
		out[i] = m.level + float64(i+1)*m.trend + m.seasonal[phase]
	}
	return out, nil
}

// Name implements Model.
func (m *HoltWinters) Name() string { return fmt.Sprintf("holt-winters[%d]", m.period) }
