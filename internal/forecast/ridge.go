package forecast

import (
	"fmt"
	"math"

	"orcf/internal/mat"
)

// LaggedRidge is a black-box regressor over engineered lag features in the
// spirit of Witt et al.'s ML resource-usage models (PAPERS.md): ridge
// regression of y_t on [1, y_{t-1}…y_{t-p}, rolling-mean_w]. The explicit
// ridge penalty and the rolling-mean feature distinguish it from the plain
// AR model — the penalty keeps coefficients stable on short, near-constant
// centroid series, and the rolling mean supplies a slow component the raw
// lags would need many more parameters to express. Deterministic; no RNG.
type LaggedRidge struct {
	lags   int
	win    int
	lambda float64

	coef   []float64 // intercept, p lag coefficients, rolling-mean coefficient
	tail   []float64 // last max(lags, win) observations, most recent last
	fitted bool
}

var _ Model = (*LaggedRidge)(nil)

// NewLaggedRidge returns a lagged-feature ridge regressor. Zero values select
// lags 8, rolling window 16, and ridge penalty 1e-3.
func NewLaggedRidge(lags, win int, lambda float64) (*LaggedRidge, error) {
	if lags == 0 {
		lags = 8
	}
	if win == 0 {
		win = 16
	}
	if lambda == 0 {
		lambda = 1e-3
	}
	if lags < 1 || win < 1 {
		return nil, fmt.Errorf("forecast: lagged-ridge lags=%d window=%d < 1: %w", lags, win, ErrBadInput)
	}
	if lambda < 0 || math.IsNaN(lambda) {
		return nil, fmt.Errorf("forecast: lagged-ridge penalty %v < 0: %w", lambda, ErrBadInput)
	}
	return &LaggedRidge{lags: lags, win: win, lambda: lambda}, nil
}

// context returns the number of trailing observations a prediction needs.
func (m *LaggedRidge) context() int { return max(m.lags, m.win) }

// features fills f with the regression features for predicting the value
// after hist (most recent last): intercept, p lags, rolling mean of the last
// win values. hist must hold at least context() values.
func (m *LaggedRidge) features(hist []float64, f []float64) {
	f[0] = 1
	n := len(hist)
	for i := 1; i <= m.lags; i++ {
		f[i] = hist[n-i]
	}
	var sum float64
	for _, v := range hist[n-m.win:] {
		sum += v
	}
	f[m.lags+1] = sum / float64(m.win)
}

// MinObservations is the shortest series Fit accepts.
func (m *LaggedRidge) MinObservations() int { return m.context() + 2 }

// Fit implements Model by solving the ridge-regularized normal equations
// (XᵀX + λI)β = Xᵀy.
//
// Value range. The series is a centroid series of core.InRange values
// (|v| ≤ 100), so XᵀX's entries are at most n·10⁴ for n fit rows, finite for
// any n. λ is absolute: it is added to diagonal entries of about n·v², and
// it holds — stays at least one ulp of them — only while n·v² is under
// λ·2⁵² ≈ 4.5·10¹² at the default λ = 1e-3. At |v| = 100 that is
// n ≲ 4.5·10⁸ rows, beyond any fit window; at |v| = 1 any n. From about
// |v| = 10⁶ (which core.InRange now keeps out) it is lost from a handful of
// rows, and a near-constant series no longer factors. Scaling λ with XᵀX's
// diagonal would hold everywhere, at a digest change wherever the family
// runs.
func (m *LaggedRidge) Fit(series []float64) error {
	ctx := m.context()
	if len(series) < m.MinObservations() {
		return fmt.Errorf("forecast: lagged-ridge needs ≥ %d observations, got %d: %w",
			m.MinObservations(), len(series), ErrBadInput)
	}
	n := len(series) - ctx
	cols := m.lags + 2
	x := mat.New(n, cols)
	y := make([]float64, n)
	row := make([]float64, cols)
	for t := 0; t < n; t++ {
		m.features(series[:ctx+t], row)
		for c, v := range row {
			x.Set(t, c, v)
		}
		y[t] = series[ctx+t]
	}
	xt := x.T()
	xtx, err := mat.Mul(xt, x)
	if err != nil {
		return fmt.Errorf("forecast: lagged-ridge normal equations: %w", err)
	}
	xtx = mat.RegularizeSPD(xtx, m.lambda)
	xty, err := mat.MulVec(xt, y)
	if err != nil {
		return fmt.Errorf("forecast: lagged-ridge normal equations: %w", err)
	}
	l, err := mat.Cholesky(xtx)
	if err != nil {
		return fmt.Errorf("forecast: lagged-ridge solve: %w", err)
	}
	coef, err := mat.SolveCholesky(l, xty)
	if err != nil {
		return fmt.Errorf("forecast: lagged-ridge solve: %w", err)
	}
	m.coef = coef
	m.tail = append(m.tail[:0], series[len(series)-ctx:]...)
	m.fitted = true
	return nil
}

// Update implements Model.
func (m *LaggedRidge) Update(y float64) {
	if !m.fitted {
		return
	}
	m.tail = append(m.tail, y)
	if ctx := m.context(); len(m.tail) > ctx {
		m.tail = m.tail[len(m.tail)-ctx:]
	}
}

// Forecast implements Model by iterating one-step predictions with forecasts
// substituted for unseen values.
func (m *LaggedRidge) Forecast(h int) ([]float64, error) {
	if !m.fitted {
		return nil, ErrNotFitted
	}
	if h < 1 {
		return nil, fmt.Errorf("forecast: horizon %d < 1: %w", h, ErrBadInput)
	}
	hist := append([]float64(nil), m.tail...)
	f := make([]float64, m.lags+2)
	out := make([]float64, h)
	for s := 0; s < h; s++ {
		m.features(hist, f)
		var v float64
		for c, w := range m.coef {
			v += w * f[c]
		}
		out[s] = v
		hist = append(hist, v)
	}
	return out, nil
}

// Name implements Model.
func (m *LaggedRidge) Name() string { return "lagged-ridge" }
