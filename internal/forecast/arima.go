package forecast

import (
	"fmt"
	"math"
	"time"

	"orcf/internal/optimize"
	"orcf/internal/stat"
)

// Order specifies a seasonal ARIMA(p,d,q)(P,D,Q)_s model.
type Order struct {
	P, D, Q int // non-seasonal AR order, differencing, MA order
	SP, SD  int // seasonal AR order, seasonal differencing
	SQ      int // seasonal MA order
	Season  int // seasonal period s; ignored when SP=SD=SQ=0
}

// String renders the order in the conventional notation.
func (o Order) String() string {
	if o.SP == 0 && o.SD == 0 && o.SQ == 0 {
		return fmt.Sprintf("ARIMA(%d,%d,%d)", o.P, o.D, o.Q)
	}
	return fmt.Sprintf("ARIMA(%d,%d,%d)(%d,%d,%d)[%d]", o.P, o.D, o.Q, o.SP, o.SD, o.SQ, o.Season)
}

func (o Order) numParams() int { return o.P + o.Q + o.SP + o.SQ + 1 } // +1 constant

func (o Order) valid() bool {
	return o.P >= 0 && o.D >= 0 && o.Q >= 0 &&
		o.SP >= 0 && o.SD >= 0 && o.SQ >= 0 &&
		(o.Season > 0 || (o.SP == 0 && o.SD == 0 && o.SQ == 0)) &&
		o.P+o.Q+o.SP+o.SQ+o.D+o.SD > 0
}

// Grid is a hyper-parameter search space for AutoARIMA. Each field is the
// inclusive maximum of the corresponding order component.
type Grid struct {
	MaxP, MaxD, MaxQ    int
	MaxSP, MaxSD, MaxSQ int
	Season              int
}

// PaperGrid returns the grid searched in §VI-A3: p∈[0,5], d∈[0,2], q∈[0,5],
// P∈[0,2], D∈[0,1], Q∈[0,2] with the given seasonal period.
func PaperGrid(season int) Grid {
	return Grid{MaxP: 5, MaxD: 2, MaxQ: 5, MaxSP: 2, MaxSD: 1, MaxSQ: 2, Season: season}
}

// DefaultGrid returns a reduced grid that keeps AutoARIMA fast enough for
// interactive runs while still covering the orders that win on the paper's
// centroid series.
func DefaultGrid() Grid {
	return Grid{MaxP: 3, MaxD: 1, MaxQ: 2}
}

// effective returns the grid actually searched: without a seasonal period
// (Season ≤ 1) the seasonal axes collapse.
func (g Grid) effective() Grid {
	if g.Season <= 1 {
		g.MaxSP, g.MaxSD, g.MaxSQ = 0, 0, 0
	}
	return g
}

// orders enumerates every valid order in the grid.
func (g Grid) orders() []Order {
	g = g.effective()
	size := (g.MaxP + 1) * (g.MaxD + 1) * (g.MaxQ + 1) * (g.MaxSP + 1) * (g.MaxSD + 1) * (g.MaxSQ + 1)
	if size <= 0 {
		return nil
	}
	out := make([]Order, 0, size)
	for p := 0; p <= g.MaxP; p++ {
		for d := 0; d <= g.MaxD; d++ {
			for q := 0; q <= g.MaxQ; q++ {
				for sp := 0; sp <= g.MaxSP; sp++ {
					for sd := 0; sd <= g.MaxSD; sd++ {
						for sq := 0; sq <= g.MaxSQ; sq++ {
							o := Order{P: p, D: d, Q: q, SP: sp, SD: sd, SQ: sq, Season: g.Season}
							if o.valid() {
								out = append(out, o)
							}
						}
					}
				}
			}
		}
	}
	return out
}

// ARIMA is a seasonal ARIMA model fitted by conditional sum of squares (CSS)
// with a Nelder–Mead optimizer. Multiplicative seasonal polynomials are
// expanded into flat lag-coefficient arrays before evaluating the CSS
// recursion. A sufficient-condition stationarity/invertibility guard
// (Σ|coef| < 1 per polynomial) keeps forecasts bounded, trading a slightly
// reduced parameter space for robustness — the AICc grid search then selects
// among the guarded fits, mirroring the paper's statsmodels setup.
//
// Fit is a pure function of the series it is given: persisted ensembles carry
// no coefficients and rebuild their models by refitting (see EnsembleState),
// so the same series must always produce the same bits. A fitted model keeps
// only what Update and Forecast read — lag-sized tails of the differencing
// levels, of the differenced series and of the residuals.
type ARIMA struct {
	order Order

	constant float64
	phi      []float64 // non-seasonal AR
	theta    []float64 // non-seasonal MA
	sphi     []float64 // seasonal AR
	stheta   []float64 // seasonal MA

	// Expanded polynomial coefficient arrays (see fitWorkspace.expand).
	arLag []float64
	maLag []float64

	// Most recent values, oldest first: levels[i].tail holds the last lag
	// values of the series after i differences (level 0 is the original
	// series), wTail the last len(arLag) values of the fully differenced
	// series and eTail the last len(maLag) CSS residuals.
	levels []diffLevel
	wTail  []float64
	eTail  []float64

	rss    float64
	aicc   float64
	fitted bool
}

// diffLevel is the state needed to extend or undo one differencing step
// x_t − x_{t−lag}.
type diffLevel struct {
	lag  int
	tail []float64
}

var _ Model = (*ARIMA)(nil)

// NewARIMA creates a model with a fixed order (no grid search).
func NewARIMA(order Order) (*ARIMA, error) {
	if !order.valid() {
		return nil, fmt.Errorf("forecast: invalid order %v: %w", order, ErrBadInput)
	}
	return &ARIMA{order: order}, nil
}

// OrderUsed returns the model's order.
func (m *ARIMA) OrderUsed() Order { return m.order }

// AICc returns the corrected Akaike criterion of the last fit (−Inf for a
// fit with zero residuals), or +Inf before the first fit.
func (m *ARIMA) AICc() float64 {
	if !m.fitted {
		return math.Inf(1)
	}
	return m.aicc
}

// minObservations is the shortest series the order can be fitted on. It
// leaves the differenced series longer than every recursion lag.
func (o Order) minObservations() int {
	return o.D + o.SD*o.Season + // differencing
		max(o.P+o.SP*o.Season, o.Q+o.SQ*o.Season) + // recursion warmup
		o.numParams() + 4
}

// Fit implements Model: difference, optimize CSS over the parameter vector,
// then store the state forecasting needs. A failed fit leaves the model as
// it was.
func (m *ARIMA) Fit(series []float64) error {
	o := m.order
	ws := newFitWorkspace(series, Grid{MaxP: o.P, MaxD: o.D, MaxQ: o.Q,
		MaxSP: o.SP, MaxSD: o.SD, MaxSQ: o.SQ, Season: o.Season})
	x, _, err := ws.fit(o)
	if err != nil {
		return err
	}
	ws.finish(m, o, x)
	return nil
}

// push appends v to a most-recent-last tail, dropping its oldest value.
func push(tail []float64, v float64) {
	if n := len(tail); n > 0 {
		copy(tail, tail[1:])
		tail[n-1] = v
	}
}

// Update implements Model: difference the observation through the level
// tails and extend the residual recursion by one step, in time independent
// of how many observations the model has seen.
func (m *ARIMA) Update(y float64) {
	if !m.fitted {
		return
	}
	v := y
	for _, lv := range m.levels {
		next := v - lv.tail[0]
		push(lv.tail, v)
		v = next
	}
	e := v - m.constant
	for i, c := range m.arLag {
		e -= c * m.wTail[len(m.wTail)-1-i]
	}
	for j, c := range m.maLag {
		e -= c * m.eTail[len(m.eTail)-1-j]
	}
	push(m.wTail, v)
	push(m.eTail, e)
}

// Forecast implements Model: iterate the ARMA recursion on the differenced
// scale with future innovations set to zero, then integrate the differencing
// back to the original scale. The only allocation is the result.
func (m *ARIMA) Forecast(h int) ([]float64, error) {
	if !m.fitted {
		return nil, ErrNotFitted
	}
	if h < 1 {
		return nil, fmt.Errorf("forecast: horizon %d < 1: %w", h, ErrBadInput)
	}
	out := make([]float64, h)
	for s := range out {
		v := m.constant
		for i, c := range m.arLag {
			if k := s - 1 - i; k >= 0 {
				v += c * out[k]
			} else {
				v += c * m.wTail[len(m.wTail)+k]
			}
		}
		for j, c := range m.maLag {
			var e float64 // future innovations are zero
			if k := s - 1 - j; k < 0 {
				e = m.eTail[len(m.eTail)+k]
			}
			v += c * e
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = m.constant
		}
		out[s] = v
	}
	integrate(m.levels, out)
	return out, nil
}

// integrate inverts the differencing in place: vals enters as forecasts on
// the fully differenced scale and leaves on the original scale. Each level
// is undone from the deepest up; the value lag steps back is read from the
// level's tail until the forecasts themselves reach that far.
func integrate(levels []diffLevel, vals []float64) {
	for li := len(levels) - 1; li >= 0; li-- {
		lv := levels[li]
		for s, dv := range vals {
			var base float64
			if s < lv.lag {
				base = lv.tail[s]
			} else {
				base = vals[s-lv.lag]
			}
			vals[s] = base + dv
		}
	}
}

// Name implements Model.
func (m *ARIMA) Name() string { return m.order.String() }

// stableParams applies the sufficient stationarity/invertibility condition
// Σ|coef| < 1 to each polynomial of the packed parameter vector
// x = (constant, φ…, θ…, Φ…, Θ…) independently.
func stableParams(x []float64, o Order) bool {
	i := 1
	for _, n := range [4]int{o.P, o.Q, o.SP, o.SQ} {
		var s float64
		for _, c := range x[i : i+n] {
			s += math.Abs(c)
		}
		if s >= 0.995 {
			return false
		}
		i += n
	}
	return true
}

// fitWorkspace is the scratch memory of one Fit or AutoARIMA call: the
// Nelder–Mead simplex, the residual and lag-coefficient buffers the CSS
// objective writes, and the differenced series shared by every order of the
// grid. It is sized once for the largest order, so evaluating the objective
// allocates nothing. It lives as long as the call and is never retained by
// a model.
type fitWorkspace struct {
	series []float64
	bounds Grid
	nm     *optimize.Workspace
	obj    optimize.Objective // ws.objective, bound once

	// diffs memoizes the series after d regular then sd seasonal differences
	// at index d·(MaxSD+1)+sd; entry 0 is the series itself.
	diffs [][]float64

	// The fit in progress.
	order Order
	w     []float64

	x0    []float64
	resid []float64
	ar    []float64 // expanded AR lag coefficients, capacity for the largest order
	ma    []float64
	arWin []float64 // the same, reversed (see windowed)
	maWin []float64
	// Dense polynomial scratch of the seasonal expansion.
	polyA, polyB, prod []float64
}

// newFitWorkspace sizes a workspace for every order within bounds.
func newFitWorkspace(series []float64, bounds Grid) *fitWorkspace {
	maxParams := bounds.MaxP + bounds.MaxQ + bounds.MaxSP + bounds.MaxSQ + 1
	arLags := bounds.MaxP + bounds.MaxSP*bounds.Season
	maLags := bounds.MaxQ + bounds.MaxSQ*bounds.Season
	ws := &fitWorkspace{
		series: series,
		bounds: bounds,
		nm:     optimize.NewWorkspace(maxParams),
		diffs:  make([][]float64, (bounds.MaxD+1)*(bounds.MaxSD+1)),
	}
	ws.obj = ws.objective
	ws.diffs[0] = series
	slab := make([]float64, maxParams+len(series)+2*(arLags+maLags))
	take := func(n int) []float64 {
		out := slab[:n:n]
		slab = slab[n:]
		return out
	}
	ws.x0, ws.resid = take(maxParams), take(len(series))
	ws.ar, ws.ma = take(arLags), take(maLags)
	ws.arWin, ws.maWin = take(arLags), take(maLags)
	if bounds.MaxSP > 0 || bounds.MaxSQ > 0 {
		a := max(bounds.MaxP, bounds.MaxQ) + 1
		b := max(bounds.MaxSP, bounds.MaxSQ)*bounds.Season + 1
		poly := make([]float64, 2*(a+b)-1)
		ws.polyA, ws.polyB, ws.prod = poly[:a:a], poly[a:a+b:a+b], poly[a+b:]
	}
	return ws
}

// differenced returns the series after d regular and then sd seasonal
// differences, computing each level at most once per workspace.
func (ws *fitWorkspace) differenced(d, sd int) []float64 {
	idx := d*(ws.bounds.MaxSD+1) + sd
	if ws.diffs[idx] == nil {
		if sd > 0 {
			ws.diffs[idx] = stat.Diff(ws.differenced(d, sd-1), ws.bounds.Season)
		} else {
			ws.diffs[idx] = stat.Diff(ws.differenced(d-1, 0), 1)
		}
	}
	return ws.diffs[idx]
}

// fit optimizes the CSS objective for one order. The returned parameter
// vector aliases the workspace and is valid until the next fit; rss is the
// objective at it.
func (ws *fitWorkspace) fit(o Order) (x []float64, rss float64, err error) {
	if need := o.minObservations(); len(ws.series) < need {
		return nil, 0, fmt.Errorf("forecast: %v needs ≥ %d observations, got %d: %w",
			o, need, len(ws.series), ErrBadInput)
	}
	ws.order, ws.w = o, ws.differenced(o.D, o.SD)

	// Start from zeros with the constant at the differenced-series mean;
	// Nelder–Mead handles the rest.
	nParams := o.numParams()
	x0 := ws.x0[:nParams]
	for i := range x0 {
		x0[i] = 0
	}
	x0[0] = stat.Mean(ws.w)
	res, err := ws.nm.NelderMead(ws.obj, x0, optimize.Options{
		MaxEvaluations: 400 * nParams,
		Tolerance:      1e-10,
		InitialStep:    0.2,
	})
	if err != nil {
		return nil, 0, fmt.Errorf("forecast: CSS optimization: %w", err)
	}
	if math.IsInf(res.F, 1) {
		return nil, 0, fmt.Errorf("forecast: CSS optimization found no feasible fit for %v: %w", o, ErrBadInput)
	}
	return res.X, res.F, nil
}

// objective is the CSS residual sum of squares of the fit in progress at the
// packed parameter vector x, +Inf outside the stability region.
func (ws *fitWorkspace) objective(x []float64) float64 {
	if !stableParams(x, ws.order) {
		return math.Inf(1)
	}
	arLag, maLag := ws.expand(x, ws.order)
	if len(arLag) <= 3 && len(maLag) <= 2 {
		return cssSmall(ws.w, x[0], arLag, maLag)
	}
	arWin, maWin := ws.windowed(arLag, maLag)
	return cssResiduals(ws.w, x[0], arWin, maWin, ws.resid)
}

// windowed reverses the lag arrays into the workspace's window-aligned
// buffers, the layout cssResiduals reads.
func (ws *fitWorkspace) windowed(arLag, maLag []float64) (arWin, maWin []float64) {
	arWin, maWin = ws.arWin[:len(arLag)], ws.maWin[:len(maLag)]
	for i, c := range arLag {
		arWin[len(arLag)-1-i] = c
	}
	for j, c := range maLag {
		maWin[len(maLag)-1-j] = c
	}
	return arWin, maWin
}

// finish turns the optimum x of a fit of order o into a fitted model: one
// more residual pass (the only one whose residuals are kept), then copies of
// the coefficients and of the lag-sized tails Update and Forecast read.
func (ws *fitWorkspace) finish(m *ARIMA, o Order, x []float64) {
	w := ws.differenced(o.D, o.SD)
	arLag, maLag := ws.expand(x, o)
	arWin, maWin := ws.windowed(arLag, maLag)
	rss := cssResiduals(w, x[0], arWin, maWin, ws.resid)

	state := make([]float64, len(x)+2*(len(arLag)+len(maLag)))
	take := func(src []float64) []float64 {
		out := state[:len(src):len(src)]
		state = state[len(src):]
		copy(out, src)
		return out
	}
	coef := take(x)
	*m = ARIMA{
		order:    o,
		constant: coef[0],
		phi:      coef[1 : 1+o.P],
		theta:    coef[1+o.P : 1+o.P+o.Q],
		sphi:     coef[1+o.P+o.Q : 1+o.P+o.Q+o.SP],
		stheta:   coef[1+o.P+o.Q+o.SP:],
		arLag:    take(arLag),
		maLag:    take(maLag),
		levels:   ws.levelTails(o),
		wTail:    take(w[len(w)-len(arLag):]),
		eTail:    take(ws.resid[len(w)-len(maLag) : len(w)]),
		rss:      rss,
		aicc:     stat.AICc(len(w), len(x)+1, rss), // +1 for innovation variance
		fitted:   true,
	}
}

// levelTails copies, for each differencing step of o (regular first, then
// seasonal), the last lag values of the series that step is applied to.
func (ws *fitWorkspace) levelTails(o Order) []diffLevel {
	levels := make([]diffLevel, o.D+o.SD)
	tails := make([]float64, o.D+o.SD*o.Season)
	for i := range levels {
		lag, level := 1, ws.differenced(min(i, o.D), max(i-o.D, 0))
		if i >= o.D {
			lag = o.Season
		}
		levels[i] = diffLevel{lag: lag, tail: tails[:lag:lag]}
		copy(levels[i].tail, level[len(level)-lag:])
		tails = tails[lag:]
	}
	return levels
}

// expand multiplies the non-seasonal and seasonal polynomials of the packed
// parameter vector into the workspace's flat lag arrays: arLag[i] is the
// coefficient of w_{t-1-i} on the right-hand side of the recursion, maLag[j]
// the coefficient of ε_{t-1-j}.
//
// AR side: (1 − Σφ_i B^i)(1 − ΣΦ_k B^{ks}) w_t = ... ⇒
// w_t = Σ a_m w_{t−m} + ... with a = expansion of the product minus the
// leading 1, sign-flipped. MA side: (1 + Σθ B^i)(1 + ΣΘ B^{ks}) keeps signs.
func (ws *fitWorkspace) expand(x []float64, o Order) (arLag, maLag []float64) {
	phi, theta := x[1:1+o.P], x[1+o.P:1+o.P+o.Q]
	arLag, maLag = ws.ar[:o.P+o.SP*o.Season], ws.ma[:o.Q+o.SQ*o.Season]
	if o.SP == 0 && o.SQ == 0 {
		// No seasonal factor: the product is the polynomial itself. The
		// dense product below turns a zero coefficient of either sign into
		// −0 on the AR side and +0 on the MA side; keep those signs.
		for i, c := range phi {
			if c == 0 {
				c = math.Copysign(0, -1)
			}
			arLag[i] = c
		}
		for j, c := range theta {
			if c == 0 {
				c = 0
			}
			maLag[j] = c
		}
		return arLag, maLag
	}
	sphi, stheta := x[1+o.P+o.Q:1+o.P+o.Q+o.SP], x[1+o.P+o.Q+o.SP:]
	// Move to RHS: w_t = Σ_{m≥1} (−arProd[m]) w_{t−m} + c + MA terms.
	arProd := ws.polyProduct(phi, sphi, o.Season, -1) // (1 − φ₁B − …)(1 − Φ₁B^s − …)
	for m := range arLag {
		arLag[m] = -arProd[m+1]
	}
	maProd := ws.polyProduct(theta, stheta, o.Season, 1) // (1 + θ₁B + …)(1 + Θ₁B^s + …)
	copy(maLag, maProd[1:])
	return arLag, maLag
}

// polyProduct multiplies 1 + sign·Σ coefs_i B^i by
// 1 + sign·Σ scoefs_k B^{k·season} as dense coefficient arrays indexed by
// lag; the result aliases ws.prod.
func (ws *fitWorkspace) polyProduct(coefs, scoefs []float64, season int, sign float64) []float64 {
	a := densePoly(ws.polyA[:len(coefs)+1], coefs, 1, sign)
	b := densePoly(ws.polyB[:len(scoefs)*season+1], scoefs, season, sign)
	out := ws.prod[:len(a)+len(b)-1]
	for i := range out {
		out[i] = 0
	}
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

// densePoly fills dst with 1 + sign·c₁B^step + sign·c₂B^{2·step} + ….
func densePoly(dst, coefs []float64, step int, sign float64) []float64 {
	for i := range dst {
		dst[i] = 0
	}
	dst[0] = 1
	for i, c := range coefs {
		dst[(i+1)*step] = sign * c
	}
	return dst
}

// cssResiduals runs the conditional-sum-of-squares recursion
// e_t = w_t − c − Σ ar·w_{t−m} − Σ ma·e_{t−m} with zero initial conditions,
// writes the residuals to resid[:len(w)] and returns their sum of squares
// over t ≥ len(arWin). The coefficient arrays are window-aligned (see
// fitWorkspace.windowed): arWin[k] multiplies w[t−p+k], so each lines up with
// the slice of the last p (or q) values and the inner loops need no bounds
// checks. w must be longer than both.
//
// The subtraction order (AR lags ascending, then MA lags ascending, i.e. each
// window walked backwards) and the sequential sum are part of the contract:
// fits must reproduce bit for bit.
func cssResiduals(w []float64, constant float64, arWin, maWin, resid []float64) (rss float64) {
	p, q := len(arWin), len(maWin)
	head := max(p, q)
	// Head: lags reaching before the start of the series are skipped.
	for t := 0; t < head; t++ {
		e := w[t] - constant
		for i := 0; i < min(p, t); i++ {
			e -= arWin[p-1-i] * w[t-1-i]
		}
		for j := 0; j < min(q, t); j++ {
			e -= maWin[q-1-j] * resid[t-1-j]
		}
		resid[t] = e
		if t >= p {
			rss += e * e
		}
	}
	for t := head; t < len(w); t++ {
		e := w[t] - constant
		win := w[t-p : t]
		win = win[:len(arWin)]
		for k := len(arWin) - 1; k >= 0; k-- {
			e -= arWin[k] * win[k]
		}
		win = resid[t-q : t]
		win = win[:len(maWin)]
		for k := len(maWin) - 1; k >= 0; k-- {
			e -= maWin[k] * win[k]
		}
		resid[t] = e
		rss += e * e
	}
	return rss
}

// cssSmall returns what cssResiduals returns, for at most three AR and two MA
// lags, without storing residuals: the lagged values ride in registers, so
// the recursion e_{t−1} → e_t is not routed through memory and the loop body
// has no bounds checks. Pure AR orders, whose steps do not depend on each
// other, get fully unrolled bodies; with MA terms the loop runs at the
// latency of the recursion and selecting the AR terms inside it is free.
func cssSmall(w []float64, constant float64, arLag, maLag []float64) (rss float64) {
	p, q := len(arLag), len(maLag)
	head := max(p, q)
	// Head, as in cssResiduals, with the residuals kept in eh.
	var eh [3]float64
	for t := 0; t < head; t++ {
		e := w[t] - constant
		for i := 0; i < min(p, t); i++ {
			e -= arLag[i] * w[t-1-i]
		}
		for j := 0; j < min(q, t); j++ {
			e -= maLag[j] * eh[t-1-j]
		}
		eh[t] = e
		if t >= p {
			rss += e * e
		}
	}
	// a, m: coefficients by lag; w1..w3, e1..e2: values that many steps back.
	var a [3]float64
	var m [2]float64
	copy(a[:], arLag)
	copy(m[:], maLag)
	var w1, w2, w3, e1, e2 float64
	if head >= 1 {
		w1, e1 = w[head-1], eh[head-1]
	}
	if head >= 2 {
		w2, e2 = w[head-2], eh[head-2]
	}
	if head >= 3 {
		w3 = w[head-3]
	}
	body := w[head:]
	switch {
	case q == 0 && p == 0:
		for _, x := range body {
			e := x - constant
			rss += e * e
		}
	case q == 0 && p == 1:
		for _, x := range body {
			e := x - constant
			e -= a[0] * w1
			w1 = x
			rss += e * e
		}
	case q == 0 && p == 2:
		for _, x := range body {
			e := x - constant
			e -= a[0] * w1
			e -= a[1] * w2
			w2, w1 = w1, x
			rss += e * e
		}
	case q == 0:
		for _, x := range body {
			e := x - constant
			e -= a[0] * w1
			e -= a[1] * w2
			e -= a[2] * w3
			w3, w2, w1 = w2, w1, x
			rss += e * e
		}
	case q == 1:
		for _, x := range body {
			e := x - constant
			e = subAR(e, p, &a, w1, w2, w3)
			e -= m[0] * e1
			w3, w2, w1 = w2, w1, x
			e1 = e
			rss += e * e
		}
	default:
		for _, x := range body {
			e := x - constant
			e = subAR(e, p, &a, w1, w2, w3)
			e -= m[0] * e1
			e -= m[1] * e2
			w3, w2, w1 = w2, w1, x
			e2, e1 = e1, e
			rss += e * e
		}
	}
	return rss
}

// subAR subtracts the first p ≤ 3 AR terms from e in lag order.
func subAR(e float64, p int, a *[3]float64, w1, w2, w3 float64) float64 {
	switch p {
	case 1:
		e -= a[0] * w1
	case 2:
		e -= a[0] * w1
		e -= a[1] * w2
	case 3:
		e -= a[0] * w1
		e -= a[1] * w2
		e -= a[2] * w3
	}
	return e
}

// AutoARIMA selects the best order from the grid by AICc, as in §VI-A3. It
// returns the fitted winner. All orders are fitted in one workspace and share
// the differenced series; ties break toward the first order in enumeration
// order, which is ascending in parameter count.
func AutoARIMA(series []float64, grid Grid) (*ARIMA, error) {
	if len(series) == 0 {
		return nil, fmt.Errorf("forecast: empty series: %w", ErrBadInput)
	}
	grid = grid.effective()
	orders := grid.orders()
	if len(orders) == 0 {
		return nil, fmt.Errorf("forecast: empty grid: %w", ErrBadInput)
	}
	ws := newFitWorkspace(series, grid)
	var (
		found    bool
		best     Order
		bestAICc float64
		bestX    = make([]float64, 0, len(ws.x0))
		lastErr  error
	)
	for _, o := range orders {
		x, rss, err := ws.fit(o)
		if err != nil {
			lastErr = err
			continue
		}
		if aicc := stat.AICc(len(ws.w), len(x)+1, rss); !found || aicc < bestAICc {
			found, best, bestAICc = true, o, aicc
			bestX = append(bestX[:0], x...)
		}
	}
	if !found {
		return nil, fmt.Errorf("forecast: no ARIMA candidate fitted: %w", lastErr)
	}
	m := &ARIMA{}
	ws.finish(m, best, bestX)
	return m, nil
}

// AutoARIMAModel adapts AutoARIMA to the Builder interface: each Fit call
// re-runs the grid search, which matches the paper's periodic re-selection.
type AutoARIMAModel struct {
	grid    Grid
	current *ARIMA
	// FitDuration accumulates time spent in grid-search fitting, feeding
	// Table II.
	fitDuration time.Duration
}

var _ Model = (*AutoARIMAModel)(nil)

// NewAutoARIMA returns a self-selecting ARIMA model over the grid.
func NewAutoARIMA(grid Grid) *AutoARIMAModel { return &AutoARIMAModel{grid: grid} }

// Fit implements Model.
func (a *AutoARIMAModel) Fit(series []float64) error {
	start := time.Now()
	m, err := AutoARIMA(series, a.grid)
	a.fitDuration += time.Since(start)
	if err != nil {
		return err
	}
	a.current = m
	return nil
}

// Update implements Model.
func (a *AutoARIMAModel) Update(y float64) {
	if a.current != nil {
		a.current.Update(y)
	}
}

// Forecast implements Model.
func (a *AutoARIMAModel) Forecast(h int) ([]float64, error) {
	if a.current == nil {
		return nil, ErrNotFitted
	}
	return a.current.Forecast(h)
}

// Name implements Model.
func (a *AutoARIMAModel) Name() string {
	if a.current == nil {
		return "auto-arima"
	}
	return "auto-" + a.current.Name()
}

// FitDuration returns the cumulative wall-clock time spent fitting.
func (a *AutoARIMAModel) FitDuration() time.Duration { return a.fitDuration }
