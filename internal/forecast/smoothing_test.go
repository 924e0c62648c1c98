package forecast

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"
)

func TestSESValidation(t *testing.T) {
	t.Parallel()
	if _, err := NewSES(-0.1); !errors.Is(err, ErrBadInput) {
		t.Fatalf("negative alpha: want ErrBadInput, got %v", err)
	}
	if _, err := NewSES(1.5); !errors.Is(err, ErrBadInput) {
		t.Fatalf("alpha > 1: want ErrBadInput, got %v", err)
	}
	m, err := NewSES(0) // default
	if err != nil {
		t.Fatal(err)
	}
	if m.alpha != 0.3 {
		t.Fatalf("default alpha = %v", m.alpha)
	}
}

func TestSESTracksLevelShift(t *testing.T) {
	t.Parallel()
	m, _ := NewSES(0.5)
	series := make([]float64, 50)
	for i := range series {
		series[i] = 0.2
	}
	if err := m.Fit(series); err != nil {
		t.Fatal(err)
	}
	f, err := m.Forecast(3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f[0]-0.2) > 1e-9 || f[0] != f[2] {
		t.Fatalf("flat series forecast %v", f)
	}
	// Level shift: forecasts converge to the new level geometrically.
	for i := 0; i < 10; i++ {
		m.Update(0.8)
	}
	f, _ = m.Forecast(1)
	if math.Abs(f[0]-0.8) > 0.01 {
		t.Fatalf("post-shift forecast %v, want ≈ 0.8", f[0])
	}
}

func TestSESLifecycleErrors(t *testing.T) {
	t.Parallel()
	m, _ := NewSES(0.3)
	if _, err := m.Forecast(1); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("want ErrNotFitted, got %v", err)
	}
	if err := m.Fit(nil); !errors.Is(err, ErrBadInput) {
		t.Fatalf("empty fit: want ErrBadInput, got %v", err)
	}
	m.Update(0.5) // update before fit establishes the level
	f, err := m.Forecast(2)
	if err != nil {
		t.Fatal(err)
	}
	if f[0] != 0.5 {
		t.Fatalf("bootstrap level %v", f[0])
	}
	if _, err := m.Forecast(0); !errors.Is(err, ErrBadInput) {
		t.Fatalf("h=0: want ErrBadInput, got %v", err)
	}
}

func TestHoltValidation(t *testing.T) {
	t.Parallel()
	if _, err := NewHolt(2, 0, 0); !errors.Is(err, ErrBadInput) {
		t.Fatalf("alpha > 1: want ErrBadInput, got %v", err)
	}
	if _, err := NewHolt(0, -1, 0); !errors.Is(err, ErrBadInput) {
		t.Fatalf("negative beta: want ErrBadInput, got %v", err)
	}
	m, err := NewHolt(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fit([]float64{1}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("single point: want ErrBadInput, got %v", err)
	}
	if _, err := m.Forecast(1); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("want ErrNotFitted, got %v", err)
	}
}

func TestHoltExtrapolatesTrend(t *testing.T) {
	t.Parallel()
	m, _ := NewHolt(0.5, 0.3, 1.0) // undamped for exact linearity
	series := make([]float64, 100)
	for i := range series {
		series[i] = 0.1 + 0.005*float64(i)
	}
	if err := m.Fit(series); err != nil {
		t.Fatal(err)
	}
	f, err := m.Forecast(10)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range f {
		want := 0.1 + 0.005*float64(100+i)
		if math.Abs(v-want) > 0.01 {
			t.Fatalf("trend forecast step %d = %v, want ≈ %v", i, v, want)
		}
	}
}

func TestHoltDampingBoundsLongHorizon(t *testing.T) {
	t.Parallel()
	damped, _ := NewHolt(0.5, 0.3, 0.9)
	undamped, _ := NewHolt(0.5, 0.3, 1.0)
	series := make([]float64, 60)
	for i := range series {
		series[i] = 0.01 * float64(i)
	}
	if err := damped.Fit(series); err != nil {
		t.Fatal(err)
	}
	if err := undamped.Fit(series); err != nil {
		t.Fatal(err)
	}
	fd, _ := damped.Forecast(500)
	fu, _ := undamped.Forecast(500)
	if !(fd[499] < fu[499]) {
		t.Fatalf("damped long-horizon %v should be below undamped %v", fd[499], fu[499])
	}
	// Damped forecast converges to a finite asymptote ℓ + b·φ/(1−φ).
	if fd[499] > 2 {
		t.Fatalf("damped forecast diverged: %v", fd[499])
	}
}

func TestHoltWintersValidation(t *testing.T) {
	t.Parallel()
	if _, err := NewHoltWinters(1); !errors.Is(err, ErrBadInput) {
		t.Fatalf("period 1: want ErrBadInput, got %v", err)
	}
	m, err := NewHoltWinters(12)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fit(make([]float64, 20)); !errors.Is(err, ErrBadInput) {
		t.Fatalf("short series: want ErrBadInput, got %v", err)
	}
	if _, err := m.Forecast(1); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("want ErrNotFitted, got %v", err)
	}
	m.Update(1) // no-op before fit
	if _, err := m.Forecast(1); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("update must not mark fitted, got %v", err)
	}
}

func TestHoltWintersCapturesSeasonality(t *testing.T) {
	t.Parallel()
	const period = 24
	rng := rand.New(rand.NewPCG(1, 1))
	n := 10 * period
	series := make([]float64, n)
	for i := range series {
		series[i] = 0.5 + 0.25*math.Sin(2*math.Pi*float64(i)/period) + 0.01*rng.NormFloat64()
	}
	m, _ := NewHoltWinters(period)
	if err := m.Fit(series); err != nil {
		t.Fatal(err)
	}
	f, err := m.Forecast(period)
	if err != nil {
		t.Fatal(err)
	}
	var hwErr, holdErr float64
	last := series[n-1]
	for i := 0; i < period; i++ {
		truth := 0.5 + 0.25*math.Sin(2*math.Pi*float64(n+i)/period)
		hwErr += math.Abs(f[i] - truth)
		holdErr += math.Abs(last - truth)
	}
	if hwErr >= holdErr/2 {
		t.Fatalf("holt-winters error %v not well below hold %v", hwErr, holdErr)
	}
}

func TestHoltWintersUpdateAdvancesPhase(t *testing.T) {
	t.Parallel()
	const period = 8
	series := make([]float64, 4*period)
	for i := range series {
		series[i] = math.Sin(2 * math.Pi * float64(i) / period)
	}
	m, _ := NewHoltWinters(period)
	if err := m.Fit(series); err != nil {
		t.Fatal(err)
	}
	f1, _ := m.Forecast(1)
	m.Update(math.Sin(2 * math.Pi * float64(len(series)) / period))
	f2, _ := m.Forecast(1)
	// After consuming one observation, the 1-step forecast targets the next
	// phase, so it must move.
	if f1[0] == f2[0] {
		t.Fatal("update did not advance the seasonal phase")
	}
}

func TestSmoothingModelNames(t *testing.T) {
	t.Parallel()
	s, _ := NewSES(0.3)
	h, _ := NewHolt(0, 0, 0)
	hw, _ := NewHoltWinters(288)
	if s.Name() == "" || h.Name() != "holt" || hw.Name() != "holt-winters[288]" {
		t.Fatalf("names: %q %q %q", s.Name(), h.Name(), hw.Name())
	}
}

// TestSmoothingModelsInEnsemble exercises the smoothing family through the
// Ensemble lifecycle, ensuring interface compliance end to end.
func TestSmoothingModelsInEnsemble(t *testing.T) {
	t.Parallel()
	builders := []Builder{
		func() Model { m, _ := NewSES(0.3); return m },
		func() Model { m, _ := NewHolt(0, 0, 0); return m },
	}
	for _, builder := range builders {
		e, err := NewEnsemble(EnsembleConfig{
			Clusters: 2, InitialCollection: 20, RetrainEvery: 50, Candidates: only(builder),
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 25; i++ {
			v := 0.3 + 0.001*float64(i)
			if err := e.Observe([][]float64{{v}, {1 - v}}); err != nil {
				t.Fatal(err)
			}
		}
		f, err := e.Forecast(3)
		if err != nil {
			t.Fatal(err)
		}
		if len(f) != 2 || len(f[0][0]) != 3 {
			t.Fatal("forecast shape wrong")
		}
	}
}
