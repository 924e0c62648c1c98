package forecast

import (
	"fmt"

	"orcf/internal/mat"
)

// AR is an autoregressive model of order p fitted by ordinary least squares.
// It serves both as a fast standalone forecaster and as a correctness
// reference for the ARIMA implementation (ARIMA(p,0,0) must agree with it).
type AR struct {
	p      int
	coef   []float64 // coef[0] is the intercept, coef[i] multiplies y_{t-i}
	tail   []float64 // last p observations, most recent last
	fitted bool
}

var _ Model = (*AR)(nil)

// NewAR returns an AR(p) model; p must be ≥ 1.
func NewAR(p int) (*AR, error) {
	if p < 1 {
		return nil, fmt.Errorf("forecast: AR order %d < 1: %w", p, ErrBadInput)
	}
	return &AR{p: p}, nil
}

// MinObservations is the shortest series Fit accepts.
func (a *AR) MinObservations() int { return a.p + 2 }

// Fit implements Model by solving the least-squares normal equations
// (XᵀX)β = Xᵀy with a small ridge term for numerical robustness on
// near-constant series.
//
// Value range. The series is a centroid series of core.InRange values
// (|v| ≤ 100), so every entry of XᵀX and Xᵀy is at most n·10⁴ in magnitude
// for n = len(series) − p rows: finite for any n (overflow needs |v| near
// 10¹⁵⁴). The 1e-9 ridge term is absolute, so it only helps while XᵀX's
// diagonal, about n·v², stays under 1e-9·2⁵² ≈ 4.5·10⁶ (below that it is at
// least one ulp): for fractions (|v| ≤ 1) that is any fit window, but for a
// series near 100 it is only n ≲ 450 rows. A constant series of 2000 values
// at 100 fails to factor (leading minor non-positive).
func (a *AR) Fit(series []float64) error {
	if len(series) < a.MinObservations() {
		return fmt.Errorf("forecast: AR(%d) needs ≥ %d observations, got %d: %w",
			a.p, a.MinObservations(), len(series), ErrBadInput)
	}
	n := len(series) - a.p
	cols := a.p + 1
	x := mat.New(n, cols)
	y := make([]float64, n)
	for t := 0; t < n; t++ {
		x.Set(t, 0, 1)
		for i := 1; i <= a.p; i++ {
			x.Set(t, i, series[a.p+t-i])
		}
		y[t] = series[a.p+t]
	}
	xt := x.T()
	xtx, err := mat.Mul(xt, x)
	if err != nil {
		return fmt.Errorf("forecast: AR normal equations: %w", err)
	}
	xtx = mat.RegularizeSPD(xtx, 1e-9)
	xty, err := mat.MulVec(xt, y)
	if err != nil {
		return fmt.Errorf("forecast: AR normal equations: %w", err)
	}
	l, err := mat.Cholesky(xtx)
	if err != nil {
		return fmt.Errorf("forecast: AR solve: %w", err)
	}
	coef, err := mat.SolveCholesky(l, xty)
	if err != nil {
		return fmt.Errorf("forecast: AR solve: %w", err)
	}
	a.coef = coef
	a.tail = append([]float64(nil), series[len(series)-a.p:]...)
	a.fitted = true
	return nil
}

// Update implements Model.
func (a *AR) Update(y float64) {
	if !a.fitted {
		return
	}
	a.tail = append(a.tail, y)
	if len(a.tail) > a.p {
		a.tail = a.tail[len(a.tail)-a.p:]
	}
}

// Forecast implements Model by iterating the AR recursion with forecasts
// substituted for unseen values.
func (a *AR) Forecast(h int) ([]float64, error) {
	if !a.fitted {
		return nil, ErrNotFitted
	}
	if h < 1 {
		return nil, fmt.Errorf("forecast: horizon %d < 1: %w", h, ErrBadInput)
	}
	hist := append([]float64(nil), a.tail...)
	out := make([]float64, h)
	for s := 0; s < h; s++ {
		v := a.coef[0]
		for i := 1; i <= a.p; i++ {
			v += a.coef[i] * hist[len(hist)-i]
		}
		out[s] = v
		hist = append(hist, v)
	}
	return out, nil
}

// Name implements Model.
func (a *AR) Name() string { return fmt.Sprintf("ar(%d)", a.p) }
