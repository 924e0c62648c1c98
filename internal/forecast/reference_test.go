package forecast

import (
	"fmt"
	"math"

	"orcf/internal/optimize"
	"orcf/internal/stat"
)

// The reference oracle: the ARIMA fitting, update and forecasting path (and
// the allocating Nelder–Mead it drove) exactly as they shipped before the
// allocation-free fit workspace, kept verbatim with identifiers prefixed ref.
// Restore rebuilds models by refitting, so the production path must stay a
// pure function of the series and reproduce these results bit for bit;
// TestARIMAMatchesReferenceExactly and FuzzARIMAFitMatchesReference hold it
// to that. (The flat-series failure of the old grid search was stat.AICc
// ranking a perfect fit at +Inf; with that fixed the reference selects like
// the production search there too.)

// refARIMA is a seasonal refARIMA model fitted by conditional sum of squares (CSS)
// with a Nelder–Mead optimizer. Multiplicative seasonal polynomials are
// expanded into flat lag-coefficient arrays before evaluating the CSS
// recursion. A sufficient-condition stationarity/invertibility guard
// (Σ|coef| < 1 per polynomial) keeps forecasts bounded, trading a slightly
// reduced parameter space for robustness — the AICc grid search then selects
// among the guarded fits, mirroring the paper's statsmodels setup.
type refARIMA struct {
	order Order

	constant float64
	phi      []float64 // non-seasonal AR
	theta    []float64 // non-seasonal MA
	sphi     []float64 // seasonal AR
	stheta   []float64 // seasonal MA

	// Expanded polynomial coefficient arrays (see expandPolynomials).
	arLag []float64
	maLag []float64

	origin []float64 // full (or windowed) original series
	w      []float64 // differenced series
	resid  []float64 // CSS residuals aligned with w
	rss    float64
	aicc   float64
	fitted bool
}

// refNewARIMA creates a model with a fixed order (no grid search).
func refNewARIMA(order Order) (*refARIMA, error) {
	if !order.valid() {
		return nil, fmt.Errorf("forecast: invalid order %v: %w", order, ErrBadInput)
	}
	return &refARIMA{order: order}, nil
}

// OrderUsed returns the model's order.
func (m *refARIMA) OrderUsed() Order { return m.order }

// AICc returns the corrected Akaike criterion of the last fit, or +Inf.
func (m *refARIMA) AICc() float64 {
	if !m.fitted {
		return math.Inf(1)
	}
	return m.aicc
}

// minObservations is the shortest series an order can be fitted on.
func (m *refARIMA) minObservations() int {
	o := m.order
	need := o.D + o.SD*o.Season + // differencing
		max(o.P+o.SP*o.Season, o.Q+o.SQ*o.Season) + // recursion warmup
		o.numParams() + 4
	return need
}

// Fit implements Model: refDifference, optimize CSS over the parameter vector,
// then store residual state for forecasting.
func (m *refARIMA) Fit(series []float64) error {
	if len(series) < m.minObservations() {
		return fmt.Errorf("forecast: %v needs ≥ %d observations, got %d: %w",
			m.order, m.minObservations(), len(series), ErrBadInput)
	}
	m.origin = append([]float64(nil), series...)
	w := refDifference(series, m.order)
	if len(w) < m.order.numParams()+2 {
		return fmt.Errorf("forecast: differenced series too short (%d): %w", len(w), ErrBadInput)
	}
	m.w = w

	nParams := m.order.numParams()
	objective := func(x []float64) float64 {
		params := refUnpackParams(x, m.order)
		if !params.stable() {
			return math.Inf(1)
		}
		arLag, maLag := params.expandPolynomials(m.order)
		rss, _ := refCssResiduals(w, params.constant, arLag, maLag, nil)
		return rss
	}

	// Start from zeros with the constant at the differenced-series mean;
	// Nelder–Mead handles the rest.
	x0 := make([]float64, nParams)
	x0[0] = stat.Mean(w)
	res, err := refNelderMead(objective, x0, optimize.Options{
		MaxEvaluations: 400 * nParams,
		Tolerance:      1e-10,
		InitialStep:    0.2,
	})
	if err != nil {
		return fmt.Errorf("forecast: CSS optimization: %w", err)
	}
	if math.IsInf(res.F, 1) {
		return fmt.Errorf("forecast: CSS optimization found no feasible fit for %v: %w", m.order, ErrBadInput)
	}
	params := refUnpackParams(res.X, m.order)
	m.constant = params.constant
	m.phi, m.theta = params.phi, params.theta
	m.sphi, m.stheta = params.sphi, params.stheta
	m.arLag, m.maLag = params.expandPolynomials(m.order)

	m.resid = make([]float64, len(w))
	m.rss, _ = refCssResiduals(w, m.constant, m.arLag, m.maLag, m.resid)
	effN := len(w)
	m.aicc = stat.AICc(effN, nParams+1, m.rss) // +1 for innovation variance
	m.fitted = true
	return nil
}

// Update implements Model: append the observation and extend the differenced
// series and residuals incrementally.
func (m *refARIMA) Update(y float64) {
	if !m.fitted {
		return
	}
	m.origin = append(m.origin, y)
	w := refDifference(m.origin, m.order)
	if len(w) == 0 {
		return
	}
	// Extend m.w / residuals for any newly available differenced values.
	for len(m.w) < len(w) {
		t := len(m.w)
		m.w = append(m.w, w[t])
		e := m.w[t] - m.constant
		for i, c := range m.arLag {
			if idx := t - i - 1; idx >= 0 {
				e -= c * m.w[idx]
			}
		}
		for j, c := range m.maLag {
			if idx := t - j - 1; idx >= 0 {
				e -= c * m.resid[idx]
			}
		}
		m.resid = append(m.resid, e)
	}
}

// Forecast implements Model: iterate the ARMA recursion on the differenced
// scale with future innovations set to zero, then refIntegrate the differencing
// back to the original scale.
func (m *refARIMA) Forecast(h int) ([]float64, error) {
	if !m.fitted {
		return nil, ErrNotFitted
	}
	if h < 1 {
		return nil, fmt.Errorf("forecast: horizon %d < 1: %w", h, ErrBadInput)
	}
	wHist := append([]float64(nil), m.w...)
	eHist := append([]float64(nil), m.resid...)
	wf := make([]float64, h)
	for s := 0; s < h; s++ {
		t := len(wHist)
		v := m.constant
		for i, c := range m.arLag {
			if idx := t - i - 1; idx >= 0 {
				v += c * wHist[idx]
			}
		}
		for j, c := range m.maLag {
			if idx := t - j - 1; idx >= 0 {
				v += c * eHist[idx]
			}
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = m.constant
		}
		wf[s] = v
		wHist = append(wHist, v)
		eHist = append(eHist, 0)
	}
	return refIntegrate(m.origin, wf, m.order), nil
}

// Name implements Model.
func (m *refARIMA) Name() string { return m.order.String() }

// params bundles the flat optimizer vector in structured form.
type refArimaParams struct {
	constant float64
	phi      []float64
	theta    []float64
	sphi     []float64
	stheta   []float64
}

func refUnpackParams(x []float64, o Order) refArimaParams {
	var p refArimaParams
	i := 0
	p.constant = x[i]
	i++
	take := func(n int) []float64 {
		out := x[i : i+n]
		i += n
		return out
	}
	p.phi = take(o.P)
	p.theta = take(o.Q)
	p.sphi = take(o.SP)
	p.stheta = take(o.SQ)
	return p
}

// stable applies the sufficient stationarity/invertibility condition
// Σ|coef| < 1 to each polynomial independently.
func (p refArimaParams) stable() bool {
	for _, coefs := range [][]float64{p.phi, p.theta, p.sphi, p.stheta} {
		var s float64
		for _, c := range coefs {
			s += math.Abs(c)
		}
		if s >= 0.995 {
			return false
		}
	}
	return true
}

// expandPolynomials multiplies the non-seasonal and seasonal polynomials into
// flat lag arrays: arLag[i] is the coefficient of w_{t-1-i} on the right-hand
// side of the recursion, maLag[j] the coefficient of ε_{t-1-j}.
//
// AR side: (1 − Σφ_i B^i)(1 − ΣΦ_k B^{ks}) w_t = ... ⇒
// w_t = Σ a_m w_{t−m} + ... with a = expansion of the product minus the
// leading 1, sign-flipped. MA side: (1 + Σθ B^i)(1 + ΣΘ B^{ks}) keeps signs.
func (p refArimaParams) expandPolynomials(o Order) (arLag, maLag []float64) {
	// Represent polynomials as coefficient arrays indexed by lag, poly[0]=1.
	arPoly := refPolyFromCoefs(p.phi, 1, -1)          // 1 − φ₁B − …
	sarPoly := refPolyFromCoefs(p.sphi, o.Season, -1) // 1 − Φ₁B^s − …
	arProd := refPolyMul(arPoly, sarPoly)
	// Move to RHS: w_t = Σ_{m≥1} (−arProd[m]) w_{t−m} + c + MA terms.
	if len(arProd) > 1 {
		arLag = make([]float64, len(arProd)-1)
		for mIdx := 1; mIdx < len(arProd); mIdx++ {
			arLag[mIdx-1] = -arProd[mIdx]
		}
	}
	maPoly := refPolyFromCoefs(p.theta, 1, 1)          // 1 + θ₁B + …
	smaPoly := refPolyFromCoefs(p.stheta, o.Season, 1) // 1 + Θ₁B^s + …
	maProd := refPolyMul(maPoly, smaPoly)
	if len(maProd) > 1 {
		maLag = make([]float64, len(maProd)-1)
		for mIdx := 1; mIdx < len(maProd); mIdx++ {
			maLag[mIdx-1] = maProd[mIdx]
		}
	}
	return arLag, maLag
}

// refPolyFromCoefs builds 1 + sign·c₁B^step + sign·c₂B^{2·step} + … as a dense
// coefficient array.
func refPolyFromCoefs(coefs []float64, step int, sign float64) []float64 {
	if len(coefs) == 0 {
		return []float64{1}
	}
	out := make([]float64, len(coefs)*step+1)
	out[0] = 1
	for i, c := range coefs {
		out[(i+1)*step] = sign * c
	}
	return out
}

func refPolyMul(a, b []float64) []float64 {
	out := make([]float64, len(a)+len(b)-1)
	for i, av := range a {
		if av == 0 {
			continue
		}
		for j, bv := range b {
			out[i+j] += av * bv
		}
	}
	return out
}

// refCssResiduals runs the conditional-sum-of-squares recursion
// e_t = w_t − c − Σ ar·w_{t−m} − Σ ma·e_{t−m} with zero initial conditions.
// When residOut is non-nil it receives the residuals. Returns the residual
// sum of squares over the post-warmup region and the warmup length.
func refCssResiduals(w []float64, constant float64, arLag, maLag []float64, residOut []float64) (rss float64, warmup int) {
	warmup = len(arLag)
	resid := residOut
	if resid == nil {
		resid = make([]float64, len(w))
	}
	for t := 0; t < len(w); t++ {
		e := w[t] - constant
		for i, c := range arLag {
			if idx := t - i - 1; idx >= 0 {
				e -= c * w[idx]
			}
		}
		for j, c := range maLag {
			if idx := t - j - 1; idx >= 0 {
				e -= c * resid[idx]
			}
		}
		resid[t] = e
		if t >= warmup {
			rss += e * e
		}
	}
	if warmup >= len(w) {
		// Degenerate: all warmup; fall back to full RSS so the objective is
		// still informative.
		rss = 0
		for _, e := range resid {
			rss += e * e
		}
	}
	return rss, warmup
}

// refDifference applies d regular and SD seasonal differences.
func refDifference(series []float64, o Order) []float64 {
	w := append([]float64(nil), series...)
	for i := 0; i < o.D; i++ {
		w = stat.Diff(w, 1)
	}
	for i := 0; i < o.SD; i++ {
		w = stat.Diff(w, o.Season)
	}
	return w
}

// refIntegrate inverts the differencing: given the original series and forecasts
// on the differenced scale, reconstruct forecasts on the original scale.
func refIntegrate(origin []float64, wf []float64, o Order) []float64 {
	// Build the intermediate series stack: level 0 is the original, level i
	// is level i−1 after one more refDifference. Regular differences first,
	// then seasonal, matching refDifference() above.
	type level struct {
		lag  int
		tail []float64 // enough history of this level to undo the next one
	}
	levels := []level{}
	cur := append([]float64(nil), origin...)
	for i := 0; i < o.D; i++ {
		levels = append(levels, level{lag: 1, tail: cur})
		cur = stat.Diff(cur, 1)
	}
	for i := 0; i < o.SD; i++ {
		levels = append(levels, level{lag: o.Season, tail: cur})
		cur = stat.Diff(cur, o.Season)
	}
	// wf lives at the deepest level; walk back up.
	vals := append([]float64(nil), wf...)
	for li := len(levels) - 1; li >= 0; li-- {
		lv := levels[li]
		hist := append([]float64(nil), lv.tail...)
		up := make([]float64, len(vals))
		for s, dv := range vals {
			base := hist[len(hist)-lv.lag]
			up[s] = base + dv
			hist = append(hist, up[s])
		}
		vals = up
	}
	return vals
}

// refAutoARIMA selects the best order from the grid by AICc, as in §VI-A3. It
// returns the fitted winner. The candidates are fitted independently; ties
// break toward fewer parameters (enumeration order is ascending).
func refAutoARIMA(series []float64, grid Grid) (*refARIMA, error) {
	if len(series) == 0 {
		return nil, fmt.Errorf("forecast: empty series: %w", ErrBadInput)
	}
	var best *refARIMA
	bestAICc := math.Inf(1)
	var lastErr error
	for _, o := range grid.orders() {
		m, err := refNewARIMA(o)
		if err != nil {
			continue
		}
		if err := m.Fit(series); err != nil {
			lastErr = err
			continue
		}
		if m.AICc() < bestAICc {
			best = m
			bestAICc = m.AICc()
		}
	}
	if best == nil {
		if lastErr != nil {
			return nil, fmt.Errorf("forecast: no refARIMA candidate fitted: %w", lastErr)
		}
		return nil, fmt.Errorf("forecast: empty grid: %w", ErrBadInput)
	}
	return best, nil
}

// refWithDefaults is optimize.Options.withDefaults as of the reference.
func refWithDefaults(o optimize.Options, dim int) optimize.Options {
	if o.MaxEvaluations == 0 {
		o.MaxEvaluations = 200 * dim
	}
	if o.Tolerance == 0 {
		o.Tolerance = 1e-8
	}
	if o.InitialStep == 0 {
		o.InitialStep = 0.1
	}
	return o
}

// refNelderMead minimizes f starting from x0 using the standard simplex method
// with reflection, expansion, contraction and shrink steps (coefficients
// 1, 2, 0.5, 0.5).
func refNelderMead(f func([]float64) float64, x0 []float64, opts optimize.Options) (*optimize.Result, error) {
	if len(x0) == 0 {
		return nil, fmt.Errorf("optimize: empty start point: %w", optimize.ErrBadInput)
	}
	if f == nil {
		return nil, fmt.Errorf("optimize: nil objective: %w", optimize.ErrBadInput)
	}
	dim := len(x0)
	opts = refWithDefaults(opts, dim)

	evals := 0
	eval := func(x []float64) float64 {
		evals++
		v := f(x)
		if math.IsNaN(v) {
			return math.Inf(1)
		}
		return v
	}

	// Build initial simplex: x0 plus a step along each axis.
	simplex := make([][]float64, dim+1)
	fvals := make([]float64, dim+1)
	simplex[0] = append([]float64(nil), x0...)
	fvals[0] = eval(simplex[0])
	for i := 0; i < dim; i++ {
		p := append([]float64(nil), x0...)
		step := opts.InitialStep
		if p[i] != 0 {
			step = opts.InitialStep * math.Max(math.Abs(p[i]), 1)
		}
		p[i] += step
		simplex[i+1] = p
		fvals[i+1] = eval(p)
	}

	const (
		alpha = 1.0 // reflection
		beta  = 2.0 // expansion
		gamma = 0.5 // contraction
		delta = 0.5 // shrink
	)

	converged := false
	for evals < opts.MaxEvaluations {
		refSortSimplex(simplex, fvals)
		if math.IsInf(fvals[0], 1) {
			break // entire simplex infeasible: no progress possible
		}
		if refSpread(fvals) < opts.Tolerance && refDiameter(simplex) < 1e-6 { // optimize's fixed diameter tolerance
			converged = true
			break
		}
		// Centroid of all but the worst vertex.
		cent := make([]float64, dim)
		for _, v := range simplex[:dim] {
			for j := range cent {
				cent[j] += v[j]
			}
		}
		for j := range cent {
			cent[j] /= float64(dim)
		}
		worst := simplex[dim]

		refl := refCombine(cent, worst, 1+alpha, -alpha)
		fRefl := eval(refl)
		switch {
		case fRefl < fvals[0]:
			// Try expanding further in the same direction.
			exp := refCombine(cent, worst, 1+alpha*beta, -alpha*beta)
			if fExp := eval(exp); fExp < fRefl {
				simplex[dim], fvals[dim] = exp, fExp
			} else {
				simplex[dim], fvals[dim] = refl, fRefl
			}
		case fRefl < fvals[dim-1]:
			simplex[dim], fvals[dim] = refl, fRefl
		default:
			// Contract toward the better of worst/reflected.
			var contr []float64
			if fRefl < fvals[dim] {
				contr = refCombine(cent, refl, 1-gamma, gamma)
			} else {
				contr = refCombine(cent, worst, 1-gamma, gamma)
			}
			fContr := eval(contr)
			if fContr < math.Min(fRefl, fvals[dim]) {
				simplex[dim], fvals[dim] = contr, fContr
			} else {
				// Shrink everything toward the best vertex.
				for i := 1; i <= dim; i++ {
					simplex[i] = refCombine(simplex[0], simplex[i], 1-delta, delta)
					fvals[i] = eval(simplex[i])
				}
			}
		}
	}
	refSortSimplex(simplex, fvals)
	return &optimize.Result{
		X:           append([]float64(nil), simplex[0]...),
		F:           fvals[0],
		Evaluations: evals,
		Converged:   converged,
	}, nil
}

// refCombine returns a·x + b·y elementwise.
func refCombine(x, y []float64, a, b float64) []float64 {
	out := make([]float64, len(x))
	for i := range out {
		out[i] = a*x[i] + b*y[i]
	}
	return out
}

func refSortSimplex(simplex [][]float64, fvals []float64) {
	// Insertion sort: the simplex is nearly sorted between iterations.
	for i := 1; i < len(fvals); i++ {
		v, fv := simplex[i], fvals[i]
		j := i - 1
		for j >= 0 && fvals[j] > fv {
			simplex[j+1], fvals[j+1] = simplex[j], fvals[j]
			j--
		}
		simplex[j+1], fvals[j+1] = v, fv
	}
}

func refSpread(fvals []float64) float64 {
	lo, hi := fvals[0], fvals[0]
	for _, v := range fvals[1:] {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if math.IsInf(hi, 1) && math.IsInf(lo, 1) {
		return 0 // entire simplex infeasible: stop
	}
	return hi - lo
}

// refDiameter is the largest L∞ distance from the best vertex to any other.
func refDiameter(simplex [][]float64) float64 {
	var d float64
	best := simplex[0]
	for _, v := range simplex[1:] {
		for j := range v {
			d = math.Max(d, math.Abs(v[j]-best[j]))
		}
	}
	return d
}
