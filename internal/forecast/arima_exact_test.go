package forecast

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"orcf/internal/trace"
)

// sameBits is exact float equality: identical bit patterns (so −0 ≠ +0),
// except that any NaN equals any NaN.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func equalBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameBits(a[i], b[i]) {
			return false
		}
	}
	return true
}

// centroidSeries turns a generated trace into the kind of series the
// forecasting layer sees: nodes are ranked by mean utilization, cut into
// three groups, and each group's per-step mean is one centroid series.
func centroidSeries(tb testing.TB, seed uint64, steps int) [][]float64 {
	tb.Helper()
	const nodes, groups = 48, 3
	ds, err := trace.AlibabaLike().Generate(nodes, steps, seed)
	if err != nil {
		tb.Fatal(err)
	}
	type ranked struct {
		node int
		mean float64
	}
	rank := make([]ranked, nodes)
	for i := range rank {
		var s float64
		for t := 0; t < steps; t++ {
			s += ds.At(t, i)[0]
		}
		rank[i] = ranked{i, s / float64(steps)}
	}
	sort.Slice(rank, func(a, b int) bool {
		if rank[a].mean != rank[b].mean {
			return rank[a].mean < rank[b].mean
		}
		return rank[a].node < rank[b].node
	})
	out := make([][]float64, groups)
	for g := range out {
		out[g] = make([]float64, steps)
		members := rank[g*nodes/groups : (g+1)*nodes/groups]
		for t := range out[g] {
			var s float64
			for _, r := range members {
				s += ds.At(t, r.node)[0]
			}
			out[g][t] = s / float64(len(members))
		}
	}
	return out
}

func reversed(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[len(xs)-1-i] = x
	}
	return out
}

type namedSeries struct {
	name   string
	series []float64
}

// exactSeries is the differential corpus: what the system actually fits
// (centroids), what ARIMA is meant for (AR/MA processes), and the shapes
// that stress the guards (flat, ramp, near-unit-root, extreme magnitudes).
func exactSeries(tb testing.TB, n int) []namedSeries {
	tb.Helper()
	rng := rand.New(rand.NewPCG(77, uint64(n)))
	cents := centroidSeries(tb, 5, n)
	out := []namedSeries{
		{"centroid-low", cents[0]},
		{"centroid-mid", cents[1]},
		{"centroid-high", cents[2]},
		{"ar1", arSeries(rng, n, 0.2, 0.7, 0.02)},
	}
	ma := make([]float64, n)
	prev := 0.0
	for i := range ma {
		e := 0.05 * rng.NormFloat64()
		ma[i] = 0.4 + e + 0.6*prev
		prev = e
	}
	out = append(out, namedSeries{"ma1", ma})
	seasonal := make([]float64, n)
	for i := range seasonal {
		seasonal[i] = 0.5 + 0.3*math.Sin(2*math.Pi*float64(i)/12) + 0.01*rng.NormFloat64()
	}
	out = append(out, namedSeries{"seasonal-12", seasonal})
	ramp, constant, zeros := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range ramp {
		ramp[i] = 0.25 + 0.003*float64(i)
		constant[i] = 1
	}
	out = append(out, namedSeries{"ramp", ramp}, namedSeries{"constant", constant}, namedSeries{"zeros", zeros})
	// Near-unit-root and oscillating processes drive the simplex against
	// the Σ|coef| ≥ 0.995 stability guard.
	out = append(out,
		namedSeries{"near-unit-root", arSeries(rng, n, 0.001, 0.999, 0.01)},
		namedSeries{"near-negative-unit-root", arSeries(rng, n, 0.9, -0.998, 0.01)})
	huge, tiny := make([]float64, n), make([]float64, n)
	for i, v := range cents[1] {
		huge[i], tiny[i] = v*1e150, v*1e-150
	}
	out = append(out, namedSeries{"scale-1e150", huge}, namedSeries{"scale-1e-150", tiny})
	return out
}

// fitPair fits the reference and the production model of one order on one
// series and fails unless they agree exactly: both refuse with the same
// message, or both succeed with identical coefficients, lag arrays, state
// tails, RSS, AICc and forecasts. It returns the pair (nil when both refused).
func fitPair(t *testing.T, label string, o Order, series []float64) (*refARIMA, *ARIMA) {
	t.Helper()
	ref, err := refNewARIMA(o)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	got, err := NewARIMA(o)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	refErr, gotErr := ref.Fit(series), got.Fit(series)
	if refErr != nil || gotErr != nil {
		if refErr == nil || gotErr == nil || refErr.Error() != gotErr.Error() ||
			errors.Is(refErr, ErrBadInput) != errors.Is(gotErr, ErrBadInput) {
			t.Fatalf("%s: fit error %v, reference %v", label, gotErr, refErr)
		}
		return nil, nil
	}
	compareModels(t, label, ref, got)
	return ref, got
}

func compareModels(t *testing.T, label string, ref *refARIMA, got *ARIMA) {
	t.Helper()
	check := func(what string, g, r []float64) {
		t.Helper()
		if !equalBits(g, r) {
			t.Fatalf("%s: %s = %v, reference %v", label, what, g, r)
		}
	}
	check("constant", []float64{got.constant}, []float64{ref.constant})
	check("phi", got.phi, ref.phi)
	check("theta", got.theta, ref.theta)
	check("sphi", got.sphi, ref.sphi)
	check("stheta", got.stheta, ref.stheta)
	check("arLag", got.arLag, ref.arLag)
	check("maLag", got.maLag, ref.maLag)
	check("rss", []float64{got.rss}, []float64{ref.rss})
	check("aicc", []float64{got.aicc}, []float64{ref.aicc})
	check("differenced tail", got.wTail, ref.w[len(ref.w)-len(ref.arLag):])
	check("residual tail", got.eTail, ref.resid[len(ref.resid)-len(ref.maLag):])
	for _, h := range []int{1, 12} {
		gf, err := got.Forecast(h)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		rf, err := ref.Forecast(h)
		if err != nil {
			t.Fatalf("%s: reference: %v", label, err)
		}
		check(fmt.Sprintf("Forecast(%d)", h), gf, rf)
	}
}

// TestARIMAMatchesReferenceExactly is the differential oracle of the fit
// workspace: every order of DefaultGrid on every corpus series, fitted on the
// full window, on a window of exactly minObservations and on one too short,
// then extended through Update, must reproduce the reference bit for bit.
func TestARIMAMatchesReferenceExactly(t *testing.T) {
	t.Parallel()
	const n, updates = 200, 30
	for _, s := range exactSeries(t, n+updates) {
		for _, o := range DefaultGrid().orders() {
			label := fmt.Sprintf("%s %v", s.name, o)
			ref, got := fitPair(t, label, o, s.series[:n])
			if ref == nil {
				t.Fatalf("%s: not fitted on %d points", label, n)
			}
			for i, y := range s.series[n:] {
				ref.Update(y)
				got.Update(y)
				if i%10 == 9 {
					compareModels(t, fmt.Sprintf("%s after %d updates", label, i+1), ref, got)
				}
			}
			need := o.minObservations()
			if r, _ := fitPair(t, label+" at minObservations", o, s.series[:need]); r == nil && s.name == "ar1" {
				t.Fatalf("%s: not fitted on its minimum of %d points", label, need)
			}
			if r, _ := fitPair(t, label+" below minObservations", o, s.series[:need-1]); r != nil {
				t.Fatalf("%s: fitted on %d points, one below its minimum", label, need-1)
			}
		}
	}
}

// TestSeasonalARIMAMatchesReferenceExactly runs the oracle over every order
// of the paper's seasonal grid (1943 orders at period 12), each on one corpus
// series in rotation so that every series kind meets orders from all over the
// grid. The reference costs milliseconds per order, so the grid is cut into
// parallel shards and -short (the race pass) samples it.
func TestSeasonalARIMAMatchesReferenceExactly(t *testing.T) {
	t.Parallel()
	const n, updates, shards = 120, 14, 4
	stride := 1
	if testing.Short() {
		stride = 23
	}
	corpus := exactSeries(t, n+updates)
	orders := PaperGrid(12).orders()
	for shard := 0; shard < shards; shard++ {
		t.Run(fmt.Sprintf("shard%d", shard), func(t *testing.T) {
			t.Parallel()
			for i := shard * stride; i < len(orders); i += shards * stride {
				o, s := orders[i], corpus[(i/stride)%len(corpus)]
				label := fmt.Sprintf("%s %v", s.name, o)
				ref, got := fitPair(t, label, o, s.series[:n])
				if ref == nil {
					continue
				}
				for _, y := range s.series[n:] {
					ref.Update(y)
					got.Update(y)
				}
				compareModels(t, label+" after updates", ref, got)
			}
		})
	}
}

// TestCSSResidualsMatchesReference compares the residual kernel itself, full
// residual vector included, over every lag shape the grids produce and over
// coefficient vectors with exact zeros, negative zeros and non-finite values.
func TestCSSResidualsMatchesReference(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewPCG(3, 9))
	w := centroidSeries(t, 9, 160)[1]
	special := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), 1e-300, -1e300}
	for _, shape := range [][2]int{{0, 0}, {1, 0}, {2, 0}, {3, 0}, {0, 1}, {1, 1}, {2, 1}, {3, 1},
		{0, 2}, {1, 2}, {2, 2}, {3, 2}, {4, 0}, {0, 3}, {5, 5}, {13, 0}, {0, 13}, {29, 26}, {14, 29}} {
		for trial := 0; trial < 40; trial++ {
			ar, ma := make([]float64, shape[0]), make([]float64, shape[1])
			for _, coefs := range [][]float64{ar, ma} {
				for i := range coefs {
					coefs[i] = 0.6 * (rng.Float64() - 0.5)
					if trial >= 30 && rng.IntN(3) == 0 {
						coefs[i] = special[rng.IntN(len(special))]
					}
				}
			}
			c := rng.NormFloat64()
			refResid := make([]float64, len(w))
			wantRSS, _ := refCssResiduals(w, c, ar, ma, refResid)
			resid := make([]float64, len(w))
			gotRSS := cssResiduals(w, c, reversed(ar), reversed(ma), resid)
			if !sameBits(gotRSS, wantRSS) || !equalBits(resid, refResid) {
				t.Fatalf("shape %v trial %d: rss %v, reference %v (residuals equal: %v)",
					shape, trial, gotRSS, wantRSS, equalBits(resid, refResid))
			}
			if shape[0] <= 3 && shape[1] <= 2 {
				if small := cssSmall(w, c, ar, ma); !sameBits(small, wantRSS) {
					t.Fatalf("shape %v trial %d: cssSmall rss %v, reference %v", shape, trial, small, wantRSS)
				}
			}
		}
	}
}

// TestAutoARIMAMatchesReferenceExactly checks the grid search end to end:
// selected order, coefficients and forecasts equal the reference's. The
// search fits two orders at a time and reduces their outcomes afterwards,
// so it runs on DefaultGrid (every order through the two-lane kernel), on a
// mixed seasonal grid (seasonal orders take cssResiduals beside lanes that
// pair), and on windows too short for the larger orders, where the winner
// must come from the orders that fit and a search nothing fits must fail
// with the reference's last error. -short (the race pass) samples the
// corpus.
func TestAutoARIMAMatchesReferenceExactly(t *testing.T) {
	t.Parallel()
	mixed := Grid{MaxP: 2, MaxD: 1, MaxQ: 2, MaxSP: 1, MaxSQ: 1, Season: 4}
	corpus := exactSeries(t, 200)
	full, short := corpus, corpus[:5]
	if testing.Short() {
		full, short = []namedSeries{corpus[0], corpus[4], corpus[7], corpus[10]}, corpus[:2]
	}
	for _, grid := range []Grid{DefaultGrid(), mixed} {
		for _, s := range full {
			autoPair(t, fmt.Sprintf("%s %+v", s.name, grid), s.series, grid)
		}
		for _, s := range short {
			for _, n := range []int{5, 8, 11, 14, 17, 20} {
				autoPair(t, fmt.Sprintf("%s[:%d] %+v", s.name, n, grid), s.series[:n], grid)
			}
		}
	}
}

// autoPair runs the reference and the production grid search on one series
// and fails unless they select the same order and fitted model, or both fail
// on the same last error. Every order the search fitted must also match the
// reference's fit of that order — optimum, AICc or refusal — since a lane
// that drifts by an ulp can leave the winner untouched.
func autoPair(t *testing.T, label string, series []float64, grid Grid) {
	t.Helper()
	orders := grid.orders()
	for i, fit := range newFitWorkspace(series, grid, fitLanes).fitAll(orders) {
		ref, _ := refNewARIMA(orders[i])
		if err := ref.Fit(series); err != nil || fit.err != nil {
			if err == nil || fit.err == nil || err.Error() != fit.err.Error() {
				t.Fatalf("%s %v: search error %v, reference %v", label, orders[i], fit.err, err)
			}
			continue
		}
		x := append([]float64{ref.constant}, ref.phi...)
		x = append(append(append(x, ref.theta...), ref.sphi...), ref.stheta...)
		if !equalBits(fit.x, x) || !sameBits(fit.aicc, ref.aicc) {
			t.Fatalf("%s %v: search optimum %v (AICc %v), reference %v (AICc %v)",
				label, orders[i], fit.x, fit.aicc, x, ref.aicc)
		}
	}
	want, refErr := refAutoARIMA(series, grid)
	got, err := AutoARIMA(series, grid)
	if refErr != nil || err != nil {
		// The reference's own message names refARIMA; the wrapped last
		// error is the one both searches must agree on.
		if refErr == nil || err == nil || !errors.Is(err, ErrBadInput) ||
			errors.Unwrap(err).Error() != errors.Unwrap(refErr).Error() {
			t.Fatalf("%s: error %v, reference %v", label, err, refErr)
		}
		return
	}
	if got.OrderUsed() != want.order {
		t.Fatalf("%s: selected %v, want %v", label, got.OrderUsed(), want.order)
	}
	compareModels(t, label, want, got)
}

// TestAutoARIMAFlatSeries is the regression for the idle-cluster failure: on
// a constant window every order fits with zero residuals, which stat.AICc
// used to rank at +Inf — below "not fitted yet" — so the search selected
// nothing and failed with "empty grid".
func TestAutoARIMAFlatSeries(t *testing.T) {
	t.Parallel()
	for _, level := range []float64{0, 1, 0.37} {
		series := make([]float64, 200)
		for i := range series {
			series[i] = level
		}
		m, err := AutoARIMA(series, DefaultGrid())
		if err != nil {
			t.Fatalf("level %v: %v", level, err)
		}
		// Every order is perfect, so the first one enumerated wins.
		if want := DefaultGrid().orders()[0]; m.OrderUsed() != want {
			t.Fatalf("level %v: selected %v, want %v", level, m.OrderUsed(), want)
		}
		if !math.IsInf(m.AICc(), -1) {
			t.Fatalf("level %v: AICc of a perfect fit = %v, want -Inf", level, m.AICc())
		}
		f, err := m.Forecast(6)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range f {
			if math.Abs(v-level) > 1e-9 {
				t.Fatalf("level %v: forecast step %d = %v", level, i, v)
			}
		}
	}
	// A grid whose every order is refused says so instead of "empty grid".
	_, err := AutoARIMA([]float64{1, 1, 1, 1, 1}, DefaultGrid())
	if !errors.Is(err, ErrBadInput) || err.Error() == "forecast: empty grid: "+ErrBadInput.Error() {
		t.Fatalf("short series: want a no-candidate-fitted error, got %v", err)
	}
}

// TestAutoARIMAFitAllocations is the allocation guard of the fit workspace:
// a whole DefaultGrid search on a 200-point window allocated ~78 000 objects
// when every objective evaluation built its own slices.
func TestAutoARIMAFitAllocations(t *testing.T) {
	series := centroidSeries(t, 5, 200)[1]
	m := NewAutoARIMA(DefaultGrid())
	allocs := testing.AllocsPerRun(3, func() {
		if err := m.Fit(series); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 64 {
		t.Fatalf("AutoARIMAModel.Fit allocates %v objects per grid search, want ≤ 64", allocs)
	}
	fitted, err := AutoARIMA(series, DefaultGrid())
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { fitted.Update(0.5) }); n != 0 {
		t.Fatalf("Update allocates %v objects, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := fitted.Forecast(12); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Fatalf("Forecast allocates %v objects, want 1 (the result)", n)
	}
}
