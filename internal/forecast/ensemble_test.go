package forecast

import (
	"errors"
	"math"
	"testing"
)

func TestNewEnsembleValidation(t *testing.T) {
	t.Parallel()
	if _, err := NewEnsemble(EnsembleConfig{Clusters: 0, Candidates: only(sahBuilder)}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("0 clusters: want ErrBadInput, got %v", err)
	}
	if _, err := NewEnsemble(EnsembleConfig{Clusters: 2}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("no candidates: want ErrBadInput, got %v", err)
	}
	for _, cfg := range []EnsembleConfig{{InitialCollection: -3}, {RetrainEvery: -1}, {FitWindow: -1}} {
		cfg.Clusters, cfg.Candidates = 2, only(sahBuilder)
		if _, err := NewEnsemble(cfg); !errors.Is(err, ErrBadInput) {
			t.Fatalf("schedule %d/%d, fit window %d: want ErrBadInput, got %v",
				cfg.InitialCollection, cfg.RetrainEvery, cfg.FitWindow, err)
		}
	}
}

func TestEnsembleInitialCollectionGate(t *testing.T) {
	t.Parallel()
	e, err := NewEnsemble(EnsembleConfig{
		Clusters:          2,
		Dims:              1,
		InitialCollection: 10,
		RetrainEvery:      5,
		Candidates:        only(sahBuilder),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if err := e.Observe([][]float64{{0.1}, {0.9}}); err != nil {
			t.Fatal(err)
		}
		if e.Ready() {
			t.Fatalf("ready after %d < 10 steps", i+1)
		}
		if _, err := e.Forecast(1); !errors.Is(err, ErrNotFitted) {
			t.Fatalf("want ErrNotFitted during collection, got %v", err)
		}
	}
	if err := e.Observe([][]float64{{0.2}, {0.8}}); err != nil {
		t.Fatal(err)
	}
	if !e.Ready() {
		t.Fatal("not ready after initial collection")
	}
	f, err := e.Forecast(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(f) != 2 || len(f[0]) != 1 || len(f[0][0]) != 3 {
		t.Fatalf("forecast shape [%d][%d][%d]", len(f), len(f[0]), len(f[0][0]))
	}
	// Sample-and-hold: forecasts equal the most recent centroid.
	if f[0][0][0] != 0.2 || f[1][0][0] != 0.8 {
		t.Fatalf("forecasts %v / %v, want 0.2 / 0.8", f[0][0][0], f[1][0][0])
	}
}

func TestEnsembleRetrainSchedule(t *testing.T) {
	t.Parallel()
	e, err := NewEnsemble(EnsembleConfig{
		Clusters:          1,
		InitialCollection: 4,
		RetrainEvery:      3,
		Candidates:        only(sahBuilder),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 13; i++ {
		if err := e.Observe([][]float64{{float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	// Trainings at t=4 (initial), then t=7, 10, 13 → 4 rounds.
	_, runs := e.TrainingTime()
	if runs != 4 {
		t.Fatalf("training rounds = %d, want 4", runs)
	}
}

func TestEnsembleObserveValidation(t *testing.T) {
	t.Parallel()
	e, err := NewEnsemble(EnsembleConfig{
		Clusters: 2, Dims: 2, InitialCollection: 5,
		Candidates: only(sahBuilder),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Observe([][]float64{{1, 2}}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("wrong cluster count: want ErrBadInput, got %v", err)
	}
	if err := e.Observe([][]float64{{1}, {2}}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("wrong dims: want ErrBadInput, got %v", err)
	}
}

func TestEnsembleUpdatePathBetweenRetrains(t *testing.T) {
	t.Parallel()
	e, err := NewEnsemble(EnsembleConfig{
		Clusters:          1,
		InitialCollection: 5,
		RetrainEvery:      1000, // no retrain within this test
		Candidates:        only(sahBuilder),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := e.Observe([][]float64{{0.5}}); err != nil {
			t.Fatal(err)
		}
	}
	// Transient update: new observation shifts sample-and-hold forecast
	// without a refit.
	if err := e.Observe([][]float64{{0.77}}); err != nil {
		t.Fatal(err)
	}
	f, err := e.Forecast(1)
	if err != nil {
		t.Fatal(err)
	}
	if f[0][0][0] != 0.77 {
		t.Fatalf("forecast %v, want transient-updated 0.77", f[0][0][0])
	}
}

func TestEnsembleRecordsSeries(t *testing.T) {
	t.Parallel()
	e, err := NewEnsemble(EnsembleConfig{
		Clusters: 2, InitialCollection: 3,
		Candidates: only(sahBuilder),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := e.Observe([][]float64{{float64(i)}, {float64(-i)}}); err != nil {
			t.Fatal(err)
		}
	}
	s := e.series[1][0]
	if len(s) != 4 || s[3] != -3 {
		t.Fatalf("series = %v", s)
	}
	if e.t != 4 {
		t.Fatalf("steps = %d, want 4", e.t)
	}
}

func TestEnsembleWithARIMAForecastsTrend(t *testing.T) {
	t.Parallel()
	e, err := NewEnsemble(EnsembleConfig{
		Clusters:          1,
		InitialCollection: 120,
		RetrainEvery:      1000,
		Candidates: only(func() Model {
			return &ARIMA{order: Order{P: 1, D: 1}}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		if err := e.Observe([][]float64{{0.01 * float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	f, err := e.Forecast(5)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 5; s++ {
		want := 0.01 * float64(120+s)
		if math.Abs(f[0][0][s]-want) > 0.02 {
			t.Fatalf("trend forecast step %d: %v, want ≈ %v", s, f[0][0][s], want)
		}
	}
}

func TestEnsembleFitWindowCapsHistory(t *testing.T) {
	t.Parallel()
	// Track which series length each Fit receives via a probe model.
	var lengths []int
	e, err := NewEnsemble(EnsembleConfig{
		Clusters:          1,
		InitialCollection: 30,
		RetrainEvery:      10,
		FitWindow:         12,
		Candidates: only(func() Model {
			return &probeModel{onFit: func(n int) { lengths = append(lengths, n) }}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 55; i++ {
		if err := e.Observe([][]float64{{float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if len(lengths) == 0 {
		t.Fatal("no fits recorded")
	}
	for _, n := range lengths {
		if n > 12 {
			t.Fatalf("fit received %d observations, window is 12", n)
		}
	}
}

// probeModel records fit lengths and otherwise behaves like sample-and-hold.
type probeModel struct {
	onFit func(n int)
	last  float64
}

func (p *probeModel) Fit(series []float64) error {
	p.onFit(len(series))
	p.last = series[len(series)-1]
	return nil
}
func (p *probeModel) Update(y float64) { p.last = y }
func (p *probeModel) Forecast(h int) ([]float64, error) {
	out := make([]float64, h)
	for i := range out {
		out[i] = p.last
	}
	return out, nil
}
func (p *probeModel) Name() string { return "probe" }
