package forecast

import (
	"cmp"
	"fmt"
	"math"
	"slices"
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

// hasMA reports whether the order has MA terms (1) or not (0).
func (o Order) hasMA() int { return min(o.Q+o.SQ, 1) }

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

	// Expanded polynomial coefficient arrays (see fitLane.expand).
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

// MinObservations is the shortest series Fit accepts.
func (m *ARIMA) MinObservations() int { return m.order.minObservations() }

// minObservations is the shortest series the order can be fitted on. It
// leaves the differenced series longer than every recursion lag.
func (o Order) minObservations() int {
	return o.D + o.SD*o.Season + // differencing
		max(o.P+o.SP*o.Season, o.Q+o.SQ*o.Season) + // recursion warmup
		o.numParams() + 4
}

// Fit implements Model: difference, optimize CSS over the parameter vector,
// then store the state forecasting needs. A failed fit leaves the model as
// it was. It is the grid search's driver on a one-order queue.
func (m *ARIMA) Fit(series []float64) error {
	o := m.order
	ws := newFitWorkspace(series, Grid{MaxP: o.P, MaxD: o.D, MaxQ: o.Q,
		MaxSP: o.SP, MaxSD: o.SD, MaxSQ: o.SQ, Season: o.Season}, 1)
	fit := ws.fitAll([]Order{o})[0]
	if fit.err != nil {
		return fit.err
	}
	ws.finish(m, o, fit.x)
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

// fitLanes is how many orders a search fits at once. Within one objective
// evaluation the CSS recursion runs at the latency of its e_{t−1} → e_t
// chain, and no reordering inside an evaluation is allowed (fits must
// reproduce bit for bit), so independent evaluations are the only
// parallelism: two Nelder–Mead runs advance in lockstep and their points are
// evaluated together by cssSmall2.
const fitLanes = 2

// fitWorkspace is the scratch memory of one Fit or AutoARIMA call. The
// shared part is the series, its memoized differences and the residual
// buffer; each lane holds one order's Nelder–Mead run and the lag scratch
// its objective writes. Everything is sized once for the largest order, so
// evaluating the objective allocates nothing. It lives as long as the call
// and is never retained by a model.
type fitWorkspace struct {
	series []float64
	bounds Grid

	// diffs memoizes the series after d regular then sd seasonal differences
	// at index d·(MaxSD+1)+sd; entry 0 is the series itself.
	diffs [][]float64

	x0    []float64
	resid []float64
	lanes []fitLane
}

// fitLane is one order's fit in progress.
type fitLane struct {
	nm    *optimize.Workspace
	run   *optimize.Run // nil while the lane is idle
	order Order
	slot  int       // the order's index in the search
	w     []float64 // the order's differenced series

	// The point waiting for a cssSmall pass: its constant and its lag
	// coefficients, which alias ar and ma.
	constant     float64
	arLag, maLag []float64

	ar, ma       []float64 // expanded AR and MA lag coefficients (see expand)
	arWin, maWin []float64 // the same, reversed (see windowed)
	// Dense polynomial scratch of the seasonal expansion.
	polyA, polyB, prod []float64
}

// orderFit is the outcome of fitting one order of a search.
type orderFit struct {
	x     []float64 // the CSS optimum
	aicc  float64
	evals int // objective evaluations spent
	err   error
}

// newFitWorkspace sizes a workspace with the given number of lanes for every
// order within bounds.
func newFitWorkspace(series []float64, bounds Grid, lanes int) *fitWorkspace {
	maxParams := bounds.MaxP + bounds.MaxQ + bounds.MaxSP + bounds.MaxSQ + 1
	arLags := bounds.MaxP + bounds.MaxSP*bounds.Season
	maLags := bounds.MaxQ + bounds.MaxSQ*bounds.Season
	ws := &fitWorkspace{
		series: series,
		bounds: bounds,
		diffs:  make([][]float64, (bounds.MaxD+1)*(bounds.MaxSD+1)),
		lanes:  make([]fitLane, lanes),
	}
	ws.diffs[0] = series
	var a, b, poly int // dense polynomial scratch of the seasonal expansion
	if bounds.MaxSP > 0 || bounds.MaxSQ > 0 {
		a = max(bounds.MaxP, bounds.MaxQ) + 1
		b = max(bounds.MaxSP, bounds.MaxSQ)*bounds.Season + 1
		poly = a + b + (a + b - 1)
	}
	slab := make([]float64, maxParams+len(series)+lanes*(2*(arLags+maLags)+poly))
	take := func(n int) []float64 {
		out := slab[:n:n]
		slab = slab[n:]
		return out
	}
	ws.x0, ws.resid = take(maxParams), take(len(series))
	for i := range ws.lanes {
		ln := &ws.lanes[i]
		ln.nm = optimize.NewWorkspace(maxParams)
		ln.ar, ln.ma = take(arLags), take(maLags)
		ln.arWin, ln.maWin = take(arLags), take(maLags)
		if poly > 0 {
			ln.polyA, ln.polyB, ln.prod = take(a), take(b), take(a+b-1)
		}
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

// fitAll optimizes the CSS objective of every order and returns the
// outcomes in the orders' order. The lanes take orders from a queue: orders
// with MA terms first, whose evaluations gain from running in pairs, and
// within each group most parameters first — the Nelder–Mead budget and run
// length grow with the parameter count — so that the lanes run out of MA
// orders close together. Each round advances every lane to its next point
// that needs a cssSmall pass (see next) and evaluates those points together
// (see evaluate). A lane's run sees exactly the points and values it would
// see alone, so each outcome is the order's solo fit, bit for bit, and the
// caller reduces them in enumeration order as if they had been fitted one
// after another.
func (ws *fitWorkspace) fitAll(orders []Order) []orderFit {
	fits := make([]orderFit, len(orders))
	params := 0
	for _, o := range orders {
		params += o.numParams()
	}
	xs := make([]float64, params)
	for i, o := range orders {
		n := o.numParams()
		fits[i].x, xs = xs[:n:n], xs[n:]
	}
	queue := make([]int, len(orders))
	for i := range queue {
		queue[i] = i
	}
	slices.SortStableFunc(queue, func(i, j int) int {
		return cmp.Or(
			cmp.Compare(orders[j].hasMA(), orders[i].hasMA()),
			cmp.Compare(orders[j].numParams(), orders[i].numParams()))
	})

	var busy [fitLanes]bool
	for {
		idle := true
		for l := range ws.lanes {
			busy[l] = ws.next(&ws.lanes[l], orders, fits, &queue)
			idle = idle && !busy[l]
		}
		if idle {
			return fits
		}
		ws.evaluate(busy)
	}
}

// next advances the lane to its next point that needs a cssSmall pass and
// leaves the point's constant and lag coefficients on the lane; false means
// the lane is idle and the queue empty. Every other evaluation is done on
// the way: a point outside the stability region is told +Inf, and one with
// more lags than cssSmall takes runs through cssResiduals alone. A finished
// run is settled into its outcome and the lane takes the next order from
// the queue (an order refused before optimizing is settled at once).
func (ws *fitWorkspace) next(ln *fitLane, orders []Order, fits []orderFit, queue *[]int) bool {
	for {
		if ln.run == nil {
			if len(*queue) == 0 {
				return false
			}
			i := (*queue)[0]
			*queue = (*queue)[1:]
			ws.start(ln, i, orders[i], &fits[i])
			continue
		}
		x, ok := ln.run.Next()
		if !ok {
			ws.settle(ln, &fits[ln.slot])
			continue
		}
		if !stableParams(x, ln.order) {
			ln.run.Tell(math.Inf(1))
			continue
		}
		arLag, maLag := ln.expand(x, ln.order)
		if len(arLag) > 3 || len(maLag) > 2 {
			arWin, maWin := ln.windowed(arLag, maLag)
			ln.run.Tell(cssResiduals(ln.w, x[0], arWin, maWin, ws.resid))
			continue
		}
		ln.constant, ln.arLag, ln.maLag = x[0], arLag, maLag
		return true
	}
}

// start begins the fit of order o (slot i of the search) on the lane, or
// records why o cannot be fitted.
func (ws *fitWorkspace) start(ln *fitLane, i int, o Order, fit *orderFit) {
	if need := o.minObservations(); len(ws.series) < need {
		fit.err = fmt.Errorf("forecast: %v needs ≥ %d observations, got %d: %w",
			o, need, len(ws.series), ErrBadInput)
		return
	}
	ln.order, ln.slot, ln.w = o, i, ws.differenced(o.D, o.SD)

	// Start from zeros with the constant at the differenced-series mean;
	// Nelder–Mead handles the rest.
	nParams := o.numParams()
	x0 := ws.x0[:nParams]
	for i := range x0 {
		x0[i] = 0
	}
	x0[0] = stat.Mean(ln.w)
	run, err := ln.nm.Start(x0, optimize.Options{
		MaxEvaluations: 400 * nParams,
		Tolerance:      1e-10,
		InitialStep:    0.2,
	})
	if err != nil {
		fit.err = fmt.Errorf("forecast: CSS optimization: %w", err)
		return
	}
	ln.run = run
}

// settle records the outcome of the lane's finished run and idles the lane.
func (ws *fitWorkspace) settle(ln *fitLane, fit *orderFit) {
	res := ln.run.Result()
	ln.run = nil
	fit.evals = res.Evaluations
	if math.IsInf(res.F, 1) {
		fit.err = fmt.Errorf("forecast: CSS optimization found no feasible fit for %v: %w", ln.order, ErrBadInput)
		return
	}
	copy(fit.x, res.X)
	fit.aicc = stat.AICc(len(ln.w), len(res.X)+1, res.F) // +1 for innovation variance
}

// evaluate runs cssSmall at the point waiting on each busy lane and tells
// the lane's run the residual sum of squares. When both lanes are busy and
// at least one point has MA terms, the two run interleaved through
// cssSmall2. Two pure AR points run one after the other: their recursions
// have no chain to hide, and cssSmall's unrolled bodies beat the two-lane
// loop.
func (ws *fitWorkspace) evaluate(busy [fitLanes]bool) {
	if busy[0] && busy[1] {
		a, b := &ws.lanes[0], &ws.lanes[1]
		if len(a.maLag)+len(b.maLag) > 0 {
			fa, fb := cssSmall2(a.w, a.constant, a.arLag, a.maLag, b.w, b.constant, b.arLag, b.maLag)
			a.run.Tell(fa)
			b.run.Tell(fb)
			return
		}
	}
	for l, ok := range busy {
		if ok {
			ln := &ws.lanes[l]
			ln.run.Tell(cssSmall(ln.w, ln.constant, ln.arLag, ln.maLag))
		}
	}
}

// windowed reverses the lag arrays into the lane's window-aligned buffers,
// the layout cssResiduals reads.
func (ln *fitLane) windowed(arLag, maLag []float64) (arWin, maWin []float64) {
	arWin, maWin = ln.arWin[:len(arLag)], ln.maWin[:len(maLag)]
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
	ln := &ws.lanes[0]
	arLag, maLag := ln.expand(x, o)
	arWin, maWin := ln.windowed(arLag, maLag)
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
// parameter vector into the lane's flat lag arrays: arLag[i] is the
// coefficient of w_{t-1-i} on the right-hand side of the recursion, maLag[j]
// the coefficient of ε_{t-1-j}.
//
// AR side: (1 − Σφ_i B^i)(1 − ΣΦ_k B^{ks}) w_t = ... ⇒
// w_t = Σ a_m w_{t−m} + ... with a = expansion of the product minus the
// leading 1, sign-flipped. MA side: (1 + Σθ B^i)(1 + ΣΘ B^{ks}) keeps signs.
func (ln *fitLane) expand(x []float64, o Order) (arLag, maLag []float64) {
	phi, theta := x[1:1+o.P], x[1+o.P:1+o.P+o.Q]
	arLag, maLag = ln.ar[:o.P+o.SP*o.Season], ln.ma[:o.Q+o.SQ*o.Season]
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
	arProd := ln.polyProduct(phi, sphi, o.Season, -1) // (1 − φ₁B − …)(1 − Φ₁B^s − …)
	for m := range arLag {
		arLag[m] = -arProd[m+1]
	}
	maProd := ln.polyProduct(theta, stheta, o.Season, 1) // (1 + θ₁B + …)(1 + Θ₁B^s + …)
	copy(maLag, maProd[1:])
	return arLag, maLag
}

// polyProduct multiplies 1 + sign·Σ coefs_i B^i by
// 1 + sign·Σ scoefs_k B^{k·season} as dense coefficient arrays indexed by
// lag; the result aliases ln.prod.
func (ln *fitLane) polyProduct(coefs, scoefs []float64, season int, sign float64) []float64 {
	a := densePoly(ln.polyA[:len(coefs)+1], coefs, 1, sign)
	b := densePoly(ln.polyB[:len(scoefs)*season+1], scoefs, season, sign)
	out := ln.prod[:len(a)+len(b)-1]
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
// fitLane.windowed): arWin[k] multiplies w[t−p+k], so each lines up with
// the slice of the last p (or q) values and the inner loops need no bounds
// checks. w must be longer than both.
//
// The subtraction order (AR lags ascending, then MA lags ascending, i.e. each
// window walked backwards) and the sequential sum are part of the contract:
// fits must reproduce bit for bit.
//
// Value range. w is a centroid series of core.InRange values (|v| ≤ 100)
// after D regular and seasonal differences, so |w_t| ≤ 2ᴰ·100, and the
// optimizer evaluates only points that pass stableParams (Σ|coef| < 0.995
// per polynomial; others score +Inf without a recursion). The residuals are
// then bounded inputs through a stable AR and an invertible MA filter: finite
// for any series length, and the rss, at most n times the largest residual
// squared, stays far below float64 overflow. Only series far outside the
// range could overflow the sum to +Inf, which the search scores as an
// infeasible point. cssSmall and cssSmall2 compute the same recursion and
// assume the same range.
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
// A series no longer than the head (max(p, q) points) is all head.
func cssSmall(w []float64, constant float64, arLag, maLag []float64) float64 {
	var s cssLane
	s.start(w, constant, arLag, maLag)
	s.run(len(w))
	return s.rss
}

// cssSmall2 returns cssSmall of two lanes, bit for bit, in one interleaved
// pass: each lane runs its head (and, if the head is shorter, the points
// before w[3]) alone, both step together over the body length they share,
// and each finishes its own tail. Every lane performs cssSmall's operations
// in cssSmall's order; the interleaving only gives the processor a second,
// independent recursion chain to issue while the first waits on e_{t−1}, so
// a pair costs about as much as its slower lane.
func cssSmall2(wa []float64, ca float64, arA, maA []float64, wb []float64, cb float64, arB, maB []float64) (rssA, rssB float64) {
	var a, b cssLane
	a.start(wa, ca, arA, maA)
	b.start(wb, cb, arB, maB)
	a.run(min(3, len(wa)))
	b.run(min(3, len(wb)))
	if n := min(len(wa)-a.t, len(wb)-b.t); n > 0 {
		cssStep2(&a, &b, n)
	}
	a.run(len(wa))
	b.run(len(wb))
	return a.rss, b.rss
}

// cssLane is cssSmall's recursion paused before w[t]: the coefficients by lag
// (a, m), the residuals one and two steps back and the sum of squares so far.
type cssLane struct {
	w        []float64
	t        int
	constant float64
	p, q     int
	a        [3]float64
	m        [2]float64
	e1, e2   float64
	rss      float64
}

// start runs the head of the recursion, as in cssResiduals, and pauses
// before the first point of the body.
func (s *cssLane) start(w []float64, constant float64, arLag, maLag []float64) {
	p, q := len(arLag), len(maLag)
	head := min(max(p, q), len(w))
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
			s.rss += e * e
		}
	}
	s.w, s.t, s.constant, s.p, s.q = w, head, constant, p, q
	copy(s.a[:], arLag)
	copy(s.m[:], maLag)
	if head >= 1 {
		s.e1 = eh[head-1]
	}
	if head >= 2 {
		s.e2 = eh[head-2]
	}
}

// run advances the recursion alone up to w[end] (a no-op if it is there).
func (s *cssLane) run(end int) {
	if end <= s.t {
		return
	}
	// a, m: coefficients by lag; w1..w3, e1..e2: values that many steps back.
	constant, a, m, rss := s.constant, &s.a, &s.m, s.rss
	p, q, e1, e2 := s.p, s.q, s.e1, s.e2
	var w1, w2, w3 float64
	if s.t >= 1 {
		w1 = s.w[s.t-1]
	}
	if s.t >= 2 {
		w2 = s.w[s.t-2]
	}
	if s.t >= 3 {
		w3 = s.w[s.t-3]
	}
	body := s.w[s.t:end]
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
			e = subAR(e, p, a, w1, w2, w3)
			e -= m[0] * e1
			w3, w2, w1 = w2, w1, x
			e1 = e
			rss += e * e
		}
	default:
		for _, x := range body {
			e := x - constant
			e = subAR(e, p, a, w1, w2, w3)
			e -= m[0] * e1
			e -= m[1] * e2
			w3, w2, w1 = w2, w1, x
			e2, e1 = e1, e
			rss += e * e
		}
	}
	s.t, s.e1, s.e2, s.rss = end, e1, e2, rss
}

// cssStep2 advances two lanes, each at least three points in, together over
// their next n points. The lagged series values are read from memory rather
// than shifted through registers, through one window per lane that starts
// three points back, so lag k of point i is w[i−k] with no bounds check:
// off the recursion chain the loads cost nothing, and the registers they
// free keep both chains out of memory.
func cssStep2(a, b *cssLane, n int) {
	wa := a.w[a.t-3 : a.t+n]
	wb := b.w[b.t-3 : b.t+n]
	wb = wb[:len(wa)]
	ca, pa, qa, aa, ma, rssA := a.constant, a.p, a.q, &a.a, &a.m, a.rss
	cb, pb, qb, ab, mb, rssB := b.constant, b.p, b.q, &b.a, &b.m, b.rss
	ea1, ea2, eb1, eb2 := a.e1, a.e2, b.e1, b.e2
	for i := 3; i < len(wa); i++ {
		ea := wa[i] - ca
		switch pa {
		case 1:
			ea -= aa[0] * wa[i-1]
		case 2:
			ea -= aa[0] * wa[i-1]
			ea -= aa[1] * wa[i-2]
		case 3:
			ea -= aa[0] * wa[i-1]
			ea -= aa[1] * wa[i-2]
			ea -= aa[2] * wa[i-3]
		}
		eb := wb[i] - cb
		switch pb {
		case 1:
			eb -= ab[0] * wb[i-1]
		case 2:
			eb -= ab[0] * wb[i-1]
			eb -= ab[1] * wb[i-2]
		case 3:
			eb -= ab[0] * wb[i-1]
			eb -= ab[1] * wb[i-2]
			eb -= ab[2] * wb[i-3]
		}
		ea = subMA(ea, qa, ma, ea1, ea2)
		eb = subMA(eb, qb, mb, eb1, eb2)
		ea2, ea1 = ea1, ea
		eb2, eb1 = eb1, eb
		rssA += ea * ea
		rssB += eb * eb
	}
	a.t, a.e1, a.e2, a.rss = a.t+n, ea1, ea2, rssA
	b.t, b.e1, b.e2, b.rss = b.t+n, eb1, eb2, rssB
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

// subMA subtracts the first q ≤ 2 MA terms from e in lag order.
func subMA(e float64, q int, m *[2]float64, e1, e2 float64) float64 {
	switch q {
	case 1:
		e -= m[0] * e1
	case 2:
		e -= m[0] * e1
		e -= m[1] * e2
	}
	return e
}

// AutoARIMA selects the best order from the grid by AICc, as in §VI-A3. It
// returns the fitted winner. All orders are fitted in one workspace, two at
// a time (see fitAll), and share the differenced series; the outcomes are
// then compared in enumeration order, so ties break toward the first order
// enumerated, which is ascending in parameter count, and a failed search
// reports the last order's error.
func AutoARIMA(series []float64, grid Grid) (*ARIMA, error) {
	if len(series) == 0 {
		return nil, fmt.Errorf("forecast: empty series: %w", ErrBadInput)
	}
	grid = grid.effective()
	orders := grid.orders()
	if len(orders) == 0 {
		return nil, fmt.Errorf("forecast: empty grid: %w", ErrBadInput)
	}
	ws := newFitWorkspace(series, grid, min(fitLanes, len(orders)))
	var (
		best     = -1
		bestAICc float64
		lastErr  error
	)
	fits := ws.fitAll(orders)
	for i, fit := range fits {
		if fit.err != nil {
			lastErr = fit.err
			continue
		}
		if best < 0 || fit.aicc < bestAICc {
			best, bestAICc = i, fit.aicc
		}
	}
	if best < 0 {
		return nil, fmt.Errorf("forecast: no ARIMA candidate fitted: %w", lastErr)
	}
	m := &ARIMA{}
	ws.finish(m, orders[best], fits[best].x)
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

// MinObservations is the shortest series Fit accepts: the smallest minimum
// over the grid's orders, since the search needs one order to fit.
func (a *AutoARIMAModel) MinObservations() int {
	n := math.MaxInt
	for _, o := range a.grid.orders() {
		n = min(n, o.minObservations())
	}
	return n
}

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
