package forecast

import "fmt"

// SeasonalTrend is a seasonal-decomposition forecaster: Fit detrends the
// series with an OLS line, detects the dominant period by residual
// autocorrelation over candidate lags, and extracts additive per-phase
// seasonal indices. Forecasts extrapolate trend + seasonality; between
// refits, Update tracks level shifts by exponentially smoothing the
// deseasonalized observations. When no lag shows meaningful autocorrelation
// the seasonal component is dropped and the model degrades to a smoothed
// linear trend. Everything is deterministic — no RNG is consumed.
type SeasonalTrend struct {
	maxPeriod int
	alpha     float64

	period   int // 0 = no seasonality detected
	seasonal []float64
	level    float64
	slope    float64
	phase    int // seasonal index of the next observation
	fitted   bool
}

var _ Model = (*SeasonalTrend)(nil)

// minSeasonalACF is the residual-autocorrelation threshold below which Fit
// treats the series as non-seasonal.
const minSeasonalACF = 0.25

// NewSeasonalTrend returns a seasonal-decomposition model. Its period
// search stops at 96 (two days of 30-minute samples at the paper's cadence),
// and between refits it smooths the level with alpha 0.3.
func NewSeasonalTrend() *SeasonalTrend { return &SeasonalTrend{maxPeriod: 96, alpha: 0.3} }

// MinObservations is the shortest series Fit accepts: two repetitions of
// the smallest detectable period, plus slack for the trend fit.
func (m *SeasonalTrend) MinObservations() int { return 8 }

// Fit implements Model.
func (m *SeasonalTrend) Fit(series []float64) error {
	n := len(series)
	if n < m.MinObservations() {
		return fmt.Errorf("forecast: seasonal-trend needs ≥ %d observations, got %d: %w",
			m.MinObservations(), n, ErrBadInput)
	}

	// OLS trend line y ≈ a + b·t over the whole series.
	var sumT, sumY, sumTT, sumTY float64
	for t, y := range series {
		ft := float64(t)
		sumT += ft
		sumY += y
		sumTT += ft * ft
		sumTY += ft * y
	}
	fn := float64(n)
	den := fn*sumTT - sumT*sumT
	var a, b float64
	if den != 0 {
		b = (fn*sumTY - sumT*sumY) / den
		a = (sumY - b*sumT) / fn
	} else {
		a = sumY / fn
	}

	// Residual autocorrelation over candidate periods; highest wins, ties
	// break to the smallest period (strict > while scanning ascending lags).
	resid := make([]float64, n)
	var residSS float64
	for t, y := range series {
		resid[t] = y - (a + b*float64(t))
		residSS += resid[t] * resid[t]
	}
	m.period = 0
	if residSS > 0 {
		bestACF := minSeasonalACF
		maxP := min(m.maxPeriod, n/2)
		for p := 2; p <= maxP; p++ {
			var acc float64
			for t := p; t < n; t++ {
				acc += resid[t] * resid[t-p]
			}
			if acf := acc / residSS; acf > bestACF {
				bestACF, m.period = acf, p
			}
		}
	}

	// Additive seasonal indices: per-phase residual means, centered to zero.
	m.seasonal = nil
	if m.period > 0 {
		m.seasonal = make([]float64, m.period)
		counts := make([]int, m.period)
		for t, r := range resid {
			ph := t % m.period
			m.seasonal[ph] += r
			counts[ph]++
		}
		var mean float64
		for ph := range m.seasonal {
			m.seasonal[ph] /= float64(counts[ph])
			mean += m.seasonal[ph]
		}
		mean /= float64(m.period)
		for ph := range m.seasonal {
			m.seasonal[ph] -= mean
		}
		m.phase = n % m.period
	} else {
		m.phase = 0
	}
	m.level = a + b*float64(n-1)
	m.slope = b
	m.fitted = true
	return nil
}

// seasonalAt returns the seasonal index for an offset of steps past the last
// observation (0 = the next observation).
func (m *SeasonalTrend) seasonalAt(offset int) float64 {
	if m.period == 0 {
		return 0
	}
	return m.seasonal[(m.phase+offset)%m.period]
}

// Update implements Model: the deseasonalized observation smooths the level;
// slope and seasonal indices are re-estimated only at the next Fit.
func (m *SeasonalTrend) Update(y float64) {
	if !m.fitted {
		return
	}
	deseason := y - m.seasonalAt(0)
	m.level = m.alpha*deseason + (1-m.alpha)*(m.level+m.slope)
	if m.period > 0 {
		m.phase = (m.phase + 1) % m.period
	}
}

// Forecast implements Model: trend continuation plus the seasonal index of
// each forecasted phase.
func (m *SeasonalTrend) Forecast(h int) ([]float64, error) {
	if !m.fitted {
		return nil, ErrNotFitted
	}
	if h < 1 {
		return nil, fmt.Errorf("forecast: horizon %d < 1: %w", h, ErrBadInput)
	}
	out := make([]float64, h)
	for i := range out {
		out[i] = m.level + float64(i+1)*m.slope + m.seasonalAt(i)
	}
	return out, nil
}

// Name implements Model.
func (m *SeasonalTrend) Name() string { return "seasonal-trend" }
