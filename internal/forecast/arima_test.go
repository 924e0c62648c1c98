package forecast

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"
)

func arSeries(rng *rand.Rand, n int, c, phi, noise float64) []float64 {
	s := make([]float64, n)
	for i := 1; i < n; i++ {
		s[i] = c + phi*s[i-1] + noise*rng.NormFloat64()
	}
	return s
}

func TestOrderString(t *testing.T) {
	t.Parallel()
	o := Order{P: 1, D: 0, Q: 2}
	if got := o.String(); got != "ARIMA(1,0,2)" {
		t.Fatalf("String = %q", got)
	}
	so := Order{P: 1, D: 1, Q: 1, SP: 1, SD: 0, SQ: 1, Season: 12}
	if got := so.String(); got != "ARIMA(1,1,1)(1,0,1)[12]" {
		t.Fatalf("String = %q", got)
	}
}

func TestNewARIMAValidation(t *testing.T) {
	t.Parallel()
	if _, err := NewARIMA(Order{}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("all-zero order: want ErrBadInput, got %v", err)
	}
	if _, err := NewARIMA(Order{P: -1}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("negative order: want ErrBadInput, got %v", err)
	}
	// Seasonal terms without a season length are invalid.
	if _, err := NewARIMA(Order{SP: 1}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("seasonal without period: want ErrBadInput, got %v", err)
	}
	if _, err := NewARIMA(Order{P: 1}); err != nil {
		t.Fatalf("AR(1): unexpected error %v", err)
	}
}

func TestARIMARecoversAR1(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewPCG(10, 10))
	series := arSeries(rng, 3000, 0.2, 0.7, 0.02)
	m, err := NewARIMA(Order{P: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fit(series); err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.phi[0]-0.7) > 0.05 {
		t.Fatalf("phi = %v, want ≈ 0.7", m.phi[0])
	}
	if math.Abs(m.constant-0.2) > 0.05 {
		t.Fatalf("constant = %v, want ≈ 0.2", m.constant)
	}
}

func TestARIMAAgreesWithARLeastSquares(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewPCG(11, 11))
	series := arSeries(rng, 2000, 0.1, 0.5, 0.05)
	arima, _ := NewARIMA(Order{P: 1})
	if err := arima.Fit(series); err != nil {
		t.Fatal(err)
	}
	ar, _ := NewAR(1)
	if err := ar.Fit(series); err != nil {
		t.Fatal(err)
	}
	fa, err := arima.Forecast(5)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := ar.Forecast(5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fa {
		if math.Abs(fa[i]-fb[i]) > 0.02 {
			t.Fatalf("step %d: ARIMA %v vs AR %v", i, fa[i], fb[i])
		}
	}
}

func TestARIMARandomWalkForecastIsLastValue(t *testing.T) {
	t.Parallel()
	// ARIMA(0,1,0) with zero constant ⇒ forecast ≈ last observation.
	rng := rand.New(rand.NewPCG(12, 12))
	series := make([]float64, 800)
	for i := 1; i < len(series); i++ {
		series[i] = series[i-1] + 0.1*rng.NormFloat64()
	}
	m, _ := NewARIMA(Order{D: 1})
	if err := m.Fit(series); err != nil {
		t.Fatal(err)
	}
	f, err := m.Forecast(3)
	if err != nil {
		t.Fatal(err)
	}
	last := series[len(series)-1]
	for i, v := range f {
		// Drift is the mean step, which is ≈ 0 here; allow small tolerance
		// growing with horizon.
		if math.Abs(v-last) > 0.05*float64(i+1)+0.05 {
			t.Fatalf("random-walk forecast step %d = %v, want ≈ %v", i, v, last)
		}
	}
}

func TestARIMATrendContinuation(t *testing.T) {
	t.Parallel()
	// Deterministic trend + noise: d=1 with constant captures the slope.
	rng := rand.New(rand.NewPCG(13, 13))
	series := make([]float64, 600)
	for i := range series {
		series[i] = 0.01*float64(i) + 0.005*rng.NormFloat64()
	}
	m, _ := NewARIMA(Order{P: 1, D: 1})
	if err := m.Fit(series); err != nil {
		t.Fatal(err)
	}
	f, err := m.Forecast(10)
	if err != nil {
		t.Fatal(err)
	}
	lastIdx := float64(len(series) - 1)
	for i, v := range f {
		want := 0.01 * (lastIdx + float64(i+1))
		if math.Abs(v-want) > 0.05 {
			t.Fatalf("trend forecast step %d = %v, want ≈ %v", i, v, want)
		}
	}
}

func TestARIMASeasonalDifferencingRoundTrip(t *testing.T) {
	t.Parallel()
	// integrate must invert difference for any order combination.
	rng := rand.New(rand.NewPCG(14, 14))
	series := make([]float64, 120)
	for i := range series {
		series[i] = rng.Float64()
	}
	orders := []Order{
		{D: 1},
		{D: 2},
		{SD: 1, Season: 12},
		{D: 1, SD: 1, Season: 12},
		{D: 2, SD: 1, Season: 7},
	}
	for _, o := range orders {
		bounds := Grid{MaxD: o.D, MaxSD: o.SD, Season: o.Season}
		w := newFitWorkspace(series, bounds, 1).differenced(o.D, o.SD)
		if ref := refDifference(series, o); !equalBits(w, ref) {
			t.Fatalf("%v: differenced series diverges from the reference", o)
		}
		// Pretend the last few differenced values were "forecasts": undoing
		// the differencing from a truncated origin must recover the true
		// series values.
		k := 5
		origin := series[:len(series)-k]
		got := append([]float64(nil), w[len(w)-k:]...)
		integrate(newFitWorkspace(origin, bounds, 1).levelTails(o), got)
		if ref := refIntegrate(origin, w[len(w)-k:], o); !equalBits(got, ref) {
			t.Fatalf("%v: integrate diverges from the reference: %v vs %v", o, got, ref)
		}
		for i := 0; i < k; i++ {
			want := series[len(series)-k+i]
			if math.Abs(got[i]-want) > 1e-9 {
				t.Fatalf("%v: integrate mismatch at %d: %v vs %v", o, i, got[i], want)
			}
		}
	}
}

func TestARIMASeasonalFitsSeasonalSeries(t *testing.T) {
	t.Parallel()
	// Strong period-12 pattern plus noise: a seasonal model must forecast
	// the next period far better than sample-and-hold.
	rng := rand.New(rand.NewPCG(15, 15))
	n := 600
	series := make([]float64, n)
	for i := range series {
		series[i] = 0.5 + 0.3*math.Sin(2*math.Pi*float64(i)/12) + 0.01*rng.NormFloat64()
	}
	m, err := NewARIMA(Order{SP: 1, SD: 1, Season: 12})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fit(series); err != nil {
		t.Fatal(err)
	}
	f, err := m.Forecast(12)
	if err != nil {
		t.Fatal(err)
	}
	var seasonalErr, holdErr float64
	last := series[n-1]
	for i := 0; i < 12; i++ {
		truth := 0.5 + 0.3*math.Sin(2*math.Pi*float64(n+i)/12)
		seasonalErr += math.Abs(f[i] - truth)
		holdErr += math.Abs(last - truth)
	}
	if seasonalErr >= holdErr {
		t.Fatalf("seasonal ARIMA error %v not better than hold %v", seasonalErr, holdErr)
	}
}

func TestARIMAUpdateExtendsState(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewPCG(16, 16))
	series := arSeries(rng, 1000, 0.1, 0.8, 0.02)
	m, _ := NewARIMA(Order{P: 1})
	if err := m.Fit(series[:900]); err != nil {
		t.Fatal(err)
	}
	// Feed the remaining 100 points via Update; the one-step forecast should
	// track the process, i.e., base itself on the newest value.
	for _, y := range series[900:] {
		m.Update(y)
	}
	f, err := m.Forecast(1)
	if err != nil {
		t.Fatal(err)
	}
	lastVal := series[len(series)-1]
	want := m.constant + m.phi[0]*lastVal
	if math.Abs(f[0]-want) > 1e-9 {
		t.Fatalf("post-update forecast %v, want %v", f[0], want)
	}
}

func TestARIMAFitErrors(t *testing.T) {
	t.Parallel()
	m, _ := NewARIMA(Order{P: 2, D: 1, Q: 2})
	if err := m.Fit([]float64{1, 2, 3}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("short series: want ErrBadInput, got %v", err)
	}
	if _, err := m.Forecast(5); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("want ErrNotFitted, got %v", err)
	}
	m2, _ := NewARIMA(Order{P: 1})
	rng := rand.New(rand.NewPCG(17, 17))
	if err := m2.Fit(arSeries(rng, 100, 0, 0.5, 0.1)); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Forecast(0); !errors.Is(err, ErrBadInput) {
		t.Fatalf("h=0: want ErrBadInput, got %v", err)
	}
}

func TestAutoARIMAPrefersParsimony(t *testing.T) {
	t.Parallel()
	// White noise around a mean: AICc should not pick a large model.
	rng := rand.New(rand.NewPCG(18, 18))
	series := make([]float64, 400)
	for i := range series {
		series[i] = 0.5 + 0.05*rng.NormFloat64()
	}
	m, err := AutoARIMA(series, Grid{MaxP: 2, MaxD: 1, MaxQ: 2})
	if err != nil {
		t.Fatal(err)
	}
	o := m.OrderUsed()
	if o.P+o.Q > 2 || o.D > 0 {
		t.Fatalf("white noise selected %v; expected a small non-differenced model", o)
	}
}

func TestAutoARIMASelectsARForARData(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewPCG(19, 19))
	series := arSeries(rng, 1500, 0.1, 0.8, 0.05)
	m, err := AutoARIMA(series, Grid{MaxP: 2, MaxD: 1, MaxQ: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The fitted model's one-step forecast should be close to the true
	// conditional mean regardless of which nearby order won.
	f, err := m.Forecast(1)
	if err != nil {
		t.Fatal(err)
	}
	last := series[len(series)-1]
	want := 0.1 + 0.8*last
	if math.Abs(f[0]-want) > 0.05 {
		t.Fatalf("AutoARIMA one-step %v, want ≈ %v (order %v)", f[0], want, m.OrderUsed())
	}
}

func TestAutoARIMAErrors(t *testing.T) {
	t.Parallel()
	if _, err := AutoARIMA(nil, DefaultGrid()); !errors.Is(err, ErrBadInput) {
		t.Fatalf("empty series: want ErrBadInput, got %v", err)
	}
	// A grid with no valid orders (all zeros, no season).
	if _, err := AutoARIMA([]float64{1, 2, 3, 4, 5}, Grid{}); err == nil {
		t.Fatal("expected failure for degenerate grid on tiny series")
	}
}

// TestARIMAMinObservations pins the declared minimum to both sides of the
// fit boundary: a fixed order fits a series of its MinObservations values
// and fails on one value less, and so does the DefaultGrid search, whose
// minimum is that of its smallest order, ARIMA(0,1,0).
func TestARIMAMinObservations(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewPCG(21, 21))
	series := arSeries(rng, 64, 0.2, 0.6, 0.05)
	fixed, err := NewARIMA(Order{P: 1, D: 1, Q: 1})
	if err != nil {
		t.Fatal(err)
	}
	auto := NewAutoARIMA(DefaultGrid())
	if got := auto.MinObservations(); got != 6 {
		t.Fatalf("DefaultGrid MinObservations = %d, want 6", got)
	}
	for _, m := range []interface {
		Model
		MinObservations() int
	}{fixed, auto} {
		n := m.MinObservations()
		if err := m.Fit(series[:n-1]); err == nil {
			t.Fatalf("%s fitted %d values, below its MinObservations %d", m.Name(), n-1, n)
		}
		if err := m.Fit(series[:n]); err != nil {
			t.Fatalf("%s on its MinObservations %d values: %v", m.Name(), n, err)
		}
	}
}

func TestAutoARIMAModelLifecycle(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewPCG(20, 20))
	series := arSeries(rng, 500, 0.2, 0.6, 0.05)
	m := NewAutoARIMA(Grid{MaxP: 2, MaxD: 1, MaxQ: 1})
	if m.Name() != "auto-arima" {
		t.Fatalf("pre-fit name %q", m.Name())
	}
	if _, err := m.Forecast(1); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("want ErrNotFitted, got %v", err)
	}
	if err := m.Fit(series); err != nil {
		t.Fatal(err)
	}
	if m.FitDuration() <= 0 {
		t.Fatal("fit duration not recorded")
	}
	m.Update(0.5)
	if _, err := m.Forecast(3); err != nil {
		t.Fatal(err)
	}
	if m.Name() == "auto-arima" {
		t.Fatal("post-fit name should include the selected order")
	}
}

func TestPaperGridSize(t *testing.T) {
	t.Parallel()
	g := PaperGrid(288)
	// p∈[0,5], d∈[0,2], q∈[0,5], P∈[0,2], D∈[0,1], Q∈[0,2] minus the
	// all-zero order = 6·3·6·3·2·3 − 1 invalid zero configs.
	all := g.orders()
	want := 6*3*6*3*2*3 - 1
	if len(all) != want {
		t.Fatalf("paper grid has %d orders, want %d", len(all), want)
	}
	// Without a season, seasonal axes collapse.
	g2 := Grid{MaxP: 1, MaxD: 1, MaxQ: 1, MaxSP: 2, MaxSD: 1, MaxSQ: 2}
	if got, want := len(g2.orders()), 2*2*2-1; got != want {
		t.Fatalf("seasonless grid has %d orders, want %d", got, want)
	}
}

func TestExpandPolynomials(t *testing.T) {
	t.Parallel()
	// (1 − 0.5B)(1 − 0.3B²) = 1 − 0.5B − 0.3B² + 0.15B³
	o := Order{P: 1, SP: 1, Season: 2}
	ws := newFitWorkspace(nil, Grid{MaxP: 1, MaxSP: 1, Season: 2}, 1)
	arLag, maLag := ws.lanes[0].expand([]float64{0, 0.5, 0.3}, o)
	wantAR := []float64{0.5, 0.3, -0.15}
	if len(arLag) != 3 {
		t.Fatalf("arLag = %v", arLag)
	}
	for i, w := range wantAR {
		if math.Abs(arLag[i]-w) > 1e-12 {
			t.Fatalf("arLag[%d] = %v, want %v", i, arLag[i], w)
		}
	}
	if len(maLag) != 0 {
		t.Fatalf("maLag = %v, want empty", maLag)
	}
	// MA side keeps positive signs: (1+0.4B)(1+0.2B³).
	o2 := Order{Q: 1, SQ: 1, Season: 3}
	ws2 := newFitWorkspace(nil, Grid{MaxQ: 1, MaxSQ: 1, Season: 3}, 1)
	_, ma2 := ws2.lanes[0].expand([]float64{0, 0.4, 0.2}, o2)
	wantMA := []float64{0.4, 0, 0.2, 0.08}
	for i, w := range wantMA {
		if math.Abs(ma2[i]-w) > 1e-12 {
			t.Fatalf("maLag[%d] = %v, want %v", i, ma2[i], w)
		}
	}
}

func TestStabilityGuard(t *testing.T) {
	t.Parallel()
	if !stableParams([]float64{0, 0.5, 0.4}, Order{P: 2}) {
		t.Fatal("|0.5|+|0.4| < 1 should be stable")
	}
	if stableParams([]float64{0, 0.9, 0.3}, Order{P: 2}) {
		t.Fatal("|0.9|+|0.3| ≥ 1 should be rejected")
	}
	if stableParams([]float64{0, -1.2}, Order{Q: 1}) {
		t.Fatal("MA coefficient ≥ 1 should be rejected")
	}
	// Each polynomial is judged on its own: 0.6 + 0.6 across AR and MA passes.
	if !stableParams([]float64{7, 0.6, 0.6}, Order{P: 1, Q: 1}) {
		t.Fatal("the constant and other polynomials must not count toward a polynomial's sum")
	}
}
