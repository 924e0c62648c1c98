package forecast

import (
	"fmt"

	"orcf/internal/mat"
)

// lagRegressor regresses y_t by least squares on [1, y_{t-1}…y_{t-lags}]
// and, when win > 0, the mean of the last win values, with λ added to the
// diagonal of XᵀX. Two registered families are this one model: `ar`
// (NewAR) and `lagged-ridge` (NewLaggedRidge). Deterministic; no RNG.
type lagRegressor struct {
	name   string
	lags   int
	win    int     // rolling-mean window; 0 = no mean column
	lambda float64 // ridge term added to XᵀX's diagonal

	coef   []float64 // intercept, lags lag coefficients, then the mean's if win > 0
	tail   []float64 // last context() observations, most recent last
	fitted bool
}

// NewAR returns an AR(p) model fitted by ordinary least squares, p ≥ 1. Its
// λ = 1e-9 is a jitter for numerical robustness on near-constant series. It
// serves both as a fast standalone forecaster and as a correctness reference
// for the ARIMA implementation (ARIMA(p,0,0) must agree with it).
func NewAR(p int) (Model, error) {
	if p < 1 {
		return nil, fmt.Errorf("forecast: AR order %d < 1: %w", p, ErrBadInput)
	}
	return &lagRegressor{name: fmt.Sprintf("ar(%d)", p), lags: p, lambda: 1e-9}, nil
}

// NewLaggedRidge returns a black-box regressor over engineered lag features
// in the spirit of Witt et al.'s ML resource-usage models (PAPERS.md): ridge
// regression on 8 lags and the mean of the last 16 values, λ = 1e-3. The
// penalty keeps coefficients stable on short, near-constant centroid series,
// and the rolling mean supplies a slow component the raw lags would need
// many more parameters to express.
func NewLaggedRidge() Model {
	return &lagRegressor{name: "lagged-ridge", lags: 8, win: 16, lambda: 1e-3}
}

// context returns the number of trailing observations a prediction needs.
func (r *lagRegressor) context() int { return max(r.lags, r.win) }

// mean returns the mean of hist's last win values.
func (r *lagRegressor) mean(hist []float64) float64 {
	var sum float64
	for _, v := range hist[len(hist)-r.win:] {
		sum += v
	}
	return sum / float64(r.win)
}

// MinObservations is the shortest series Fit accepts.
func (r *lagRegressor) MinObservations() int { return r.context() + 2 }

// Fit implements Model by solving the normal equations (XᵀX + λI)β = Xᵀy.
//
// Value range. The series is a centroid series of core.InRange values
// (|v| ≤ 100), so every entry of XᵀX and Xᵀy is at most n·10⁴ in magnitude
// for n fit rows: finite for any n (overflow needs |v| near 10¹⁵⁴). λ is
// absolute: it is added to diagonal entries of about n·v², and it holds —
// stays at least one ulp of them — only while n·v² is under λ·2⁵².
//   - ar's λ = 1e-9 holds under ≈ 4.5·10⁶: for fractions (|v| ≤ 1) that is
//     any fit window, but for a series near 100 it is only n ≲ 450 rows. A
//     constant series of 2000 values at 100 fails to factor (leading minor
//     non-positive).
//   - lagged-ridge's λ = 1e-3 holds under ≈ 4.5·10¹²: at |v| = 100 that is
//     n ≲ 4.5·10⁸ rows, beyond any fit window. From about |v| = 10⁶ (which
//     core.InRange keeps out) it is lost from a handful of rows, and a
//     near-constant series no longer factors.
//
// Scaling λ with XᵀX's diagonal would hold everywhere, at a digest change
// wherever the families run.
func (r *lagRegressor) Fit(series []float64) error {
	if len(series) < r.MinObservations() {
		return fmt.Errorf("forecast: %s needs ≥ %d observations, got %d: %w",
			r.name, r.MinObservations(), len(series), ErrBadInput)
	}
	ctx := r.context()
	n := len(series) - ctx
	cols := r.lags + 1
	if r.win > 0 {
		cols++
	}
	x := mat.New(n, cols)
	y := make([]float64, n)
	for t := 0; t < n; t++ {
		hist := series[:ctx+t]
		x.Set(t, 0, 1)
		for i := 1; i <= r.lags; i++ {
			x.Set(t, i, hist[len(hist)-i])
		}
		if r.win > 0 {
			x.Set(t, r.lags+1, r.mean(hist))
		}
		y[t] = series[ctx+t]
	}
	xt := x.T()
	xtx, err := mat.Mul(xt, x)
	if err != nil {
		return fmt.Errorf("forecast: %s normal equations: %w", r.name, err)
	}
	xty, err := mat.MulVec(xt, y)
	if err != nil {
		return fmt.Errorf("forecast: %s normal equations: %w", r.name, err)
	}
	l, err := mat.Cholesky(mat.RegularizeSPD(xtx, r.lambda))
	if err != nil {
		return fmt.Errorf("forecast: %s solve: %w", r.name, err)
	}
	coef, err := mat.SolveCholesky(l, xty)
	if err != nil {
		return fmt.Errorf("forecast: %s solve: %w", r.name, err)
	}
	r.coef = coef
	r.tail = append(r.tail[:0], series[len(series)-ctx:]...)
	r.fitted = true
	return nil
}

// Update implements Model.
func (r *lagRegressor) Update(y float64) {
	if !r.fitted {
		return
	}
	r.tail = append(r.tail, y)
	if ctx := r.context(); len(r.tail) > ctx {
		r.tail = r.tail[len(r.tail)-ctx:]
	}
}

// Forecast implements Model by iterating one-step predictions with forecasts
// substituted for unseen values.
func (r *lagRegressor) Forecast(h int) ([]float64, error) {
	if !r.fitted {
		return nil, ErrNotFitted
	}
	if h < 1 {
		return nil, fmt.Errorf("forecast: horizon %d < 1: %w", h, ErrBadInput)
	}
	hist := append([]float64(nil), r.tail...)
	out := make([]float64, h)
	for s := range out {
		v := r.coef[0]
		if r.win > 0 {
			// lagged-ridge's sum starts at +0, which turns a −0 intercept
			// into +0; ar's starts at the intercept. Both are pinned bit
			// for bit (FuzzLagRegressorMatchesReference).
			v += 0
		}
		for i := 1; i <= r.lags; i++ {
			v += r.coef[i] * hist[len(hist)-i]
		}
		if r.win > 0 {
			v += r.coef[r.lags+1] * r.mean(hist)
		}
		out[s] = v
		hist = append(hist, v)
	}
	return out, nil
}

// Name implements Model.
func (r *lagRegressor) Name() string { return r.name }
