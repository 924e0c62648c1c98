package forecast

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"
)

func TestSampleAndHold(t *testing.T) {
	t.Parallel()
	m := NewSampleAndHold()
	if _, err := m.Forecast(3); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("want ErrNotFitted, got %v", err)
	}
	if err := m.Fit([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f, err := m.Forecast(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range f {
		if v != 3 {
			t.Fatalf("forecast %v, want all 3", f)
		}
	}
	m.Update(7)
	f, _ = m.Forecast(2)
	if f[0] != 7 || f[1] != 7 {
		t.Fatalf("after update forecast %v, want all 7", f)
	}
	if err := m.Fit(nil); !errors.Is(err, ErrBadInput) {
		t.Fatalf("empty fit: want ErrBadInput, got %v", err)
	}
	if _, err := m.Forecast(0); !errors.Is(err, ErrBadInput) {
		t.Fatalf("h=0: want ErrBadInput, got %v", err)
	}
	if m.Name() == "" {
		t.Fatal("empty name")
	}
}

func TestHistoricalMean(t *testing.T) {
	t.Parallel()
	m := NewHistoricalMean()
	if _, err := m.Forecast(1); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("want ErrNotFitted, got %v", err)
	}
	if err := m.Fit([]float64{2, 4, 6}); err != nil {
		t.Fatal(err)
	}
	f, err := m.Forecast(2)
	if err != nil {
		t.Fatal(err)
	}
	if f[0] != 4 || f[1] != 4 {
		t.Fatalf("forecast %v, want all 4", f)
	}
	m.Update(8)
	f, _ = m.Forecast(1)
	if f[0] != 5 {
		t.Fatalf("running mean forecast %v, want 5", f[0])
	}
}

func TestARRecoverCoefficients(t *testing.T) {
	t.Parallel()
	// Generate from y_t = 0.5 + 0.6 y_{t-1} − 0.2 y_{t-2} + ε, small noise.
	rng := rand.New(rand.NewPCG(1, 1))
	n := 4000
	series := make([]float64, n)
	series[0], series[1] = 1, 1
	for i := 2; i < n; i++ {
		series[i] = 0.5 + 0.6*series[i-1] - 0.2*series[i-2] + 0.01*rng.NormFloat64()
	}
	m, err := NewAR(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fit(series); err != nil {
		t.Fatal(err)
	}
	c := m.(*lagRegressor).coef
	if math.Abs(c[0]-0.5) > 0.05 || math.Abs(c[1]-0.6) > 0.05 || math.Abs(c[2]+0.2) > 0.05 {
		t.Fatalf("recovered %v, want ≈ [0.5 0.6 -0.2]", c)
	}
}

func TestARForecastMeanReversion(t *testing.T) {
	t.Parallel()
	// Stationary AR(1) with mean 1.0: long-horizon forecasts approach the
	// process mean.
	rng := rand.New(rand.NewPCG(2, 2))
	n := 2000
	series := make([]float64, n)
	for i := 1; i < n; i++ {
		series[i] = 0.5 + 0.5*series[i-1] + 0.02*rng.NormFloat64()
	}
	m, _ := NewAR(1)
	if err := m.Fit(series); err != nil {
		t.Fatal(err)
	}
	f, err := m.Forecast(200)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f[199]-1.0) > 0.1 {
		t.Fatalf("long-horizon forecast %v, want ≈ 1.0", f[199])
	}
}

func TestARValidation(t *testing.T) {
	t.Parallel()
	if _, err := NewAR(0); !errors.Is(err, ErrBadInput) {
		t.Fatalf("p=0: want ErrBadInput, got %v", err)
	}
	m, _ := NewAR(3)
	if err := m.Fit([]float64{1, 2, 3}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("short series: want ErrBadInput, got %v", err)
	}
	if _, err := m.Forecast(1); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("want ErrNotFitted, got %v", err)
	}
	if m.(*lagRegressor).fitted {
		t.Fatal("fitted before Fit")
	}
}

func TestARUpdateShiftsForecastBase(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewPCG(3, 3))
	series := make([]float64, 500)
	for i := 1; i < len(series); i++ {
		series[i] = 0.9*series[i-1] + 0.05*rng.NormFloat64()
	}
	m, _ := NewAR(1)
	if err := m.Fit(series); err != nil {
		t.Fatal(err)
	}
	before, _ := m.Forecast(1)
	m.Update(5) // inject a large jump
	after, _ := m.Forecast(1)
	if math.Abs(after[0]-before[0]) < 1 {
		t.Fatalf("Update had no effect: %v vs %v", before[0], after[0])
	}
}
