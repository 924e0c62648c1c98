package sim

import (
	"errors"
	"math"
	"testing"

	"orcf/internal/core"
	"orcf/internal/metrics"
	"orcf/internal/trace"
	"orcf/internal/transmit"
)

func makeDataset(t *testing.T, nodes, steps int, seed uint64) *trace.Dataset {
	t.Helper()
	d, err := trace.Generate(trace.GeneratorConfig{
		Name: "simtest", Nodes: nodes, Steps: steps, Profiles: 3,
		ChurnProb: 0.001, NoiseStd: 0.02, Seed: seed, DiurnalPeriod: 96,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func makeSystem(t *testing.T, nodes, resources, warmup int) *core.System {
	t.Helper()
	s, err := core.NewSystem(core.Config{
		Nodes: nodes, Resources: resources, K: 3,
		InitialCollection: warmup, RetrainEvery: 200,
		Policy: func(int) (transmit.Policy, error) { return transmit.Always{}, nil },
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRunValidation(t *testing.T) {
	t.Parallel()
	ds := makeDataset(t, 10, 20, 1)
	sys := makeSystem(t, 10, 2, 5)
	if _, err := Run(nil, ds, Config{}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("nil system: want ErrBadConfig, got %v", err)
	}
	if _, err := Run(sys, nil, Config{}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("nil dataset: want ErrBadConfig, got %v", err)
	}
	if _, err := Run(sys, ds, Config{Horizons: []int{0}}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("h=0: want ErrBadConfig, got %v", err)
	}
}

func TestRunCollectionOnly(t *testing.T) {
	t.Parallel()
	ds := makeDataset(t, 12, 60, 2)
	sys := makeSystem(t, 12, 2, 30)
	res, err := Run(sys, ds, Config{ScoreIntermediate: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 60 {
		t.Fatalf("steps = %d, want 60", res.Steps)
	}
	if len(res.PerResource) != 2 {
		t.Fatalf("resources = %d, want 2", len(res.PerResource))
	}
	// Always-transmit → h=0 error must be exactly 0, frequency 1.
	for r := range res.PerResource {
		if got := res.RMSEAt(r, 0); got != 0 {
			t.Fatalf("resource %d h=0 RMSE %v with Always policy", r, got)
		}
	}
	if res.MeanFrequency != 1 {
		t.Fatalf("mean frequency %v, want 1", res.MeanFrequency)
	}
	// Intermediate RMSE is positive (K=3 < nodes) and bounded by 1.
	for r := range res.PerResource {
		v := res.PerResource[r].Intermediate.Value()
		if !(v > 0 && v < 1) {
			t.Fatalf("intermediate RMSE %v out of range", v)
		}
	}
}

func TestRunForecastScoring(t *testing.T) {
	t.Parallel()
	ds := makeDataset(t, 12, 120, 3)
	sys := makeSystem(t, 12, 2, 40)
	res, err := Run(sys, ds, Config{
		Horizons:      []int{1, 5},
		ForecastEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ForecastsScored == 0 {
		t.Fatal("no forecasts scored")
	}
	for r := range res.PerResource {
		v1 := res.RMSEAt(r, 1)
		v5 := res.RMSEAt(r, 5)
		if math.IsNaN(v1) || math.IsNaN(v5) {
			t.Fatalf("resource %d horizons not scored: h1=%v h5=%v", r, v1, v5)
		}
		if v1 <= 0 || v1 > 1 || v5 <= 0 || v5 > 1 {
			t.Fatalf("resource %d RMSE out of range: h1=%v h5=%v", r, v1, v5)
		}
	}
}

func TestRunSlicedDataset(t *testing.T) {
	t.Parallel()
	ds, err := makeDataset(t, 10, 100, 4).Slice(25, 10)
	if err != nil {
		t.Fatal(err)
	}
	sys := makeSystem(t, 10, 2, 10)
	res, err := Run(sys, ds, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 25 {
		t.Fatalf("steps = %d, want 25", res.Steps)
	}
}

func TestRunLowerBudgetRaisesStalenessError(t *testing.T) {
	t.Parallel()
	ds := makeDataset(t, 16, 400, 5)
	newSys := func(b float64) *core.System {
		s, err := core.NewSystem(core.Config{
			Nodes: 16, Resources: 2, K: 3, InitialCollection: 1000,
			Policy: func(int) (transmit.Policy, error) {
				return transmit.NewAdaptive(transmit.AdaptiveConfig{Budget: b})
			},
			Seed: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	low, err := Run(newSys(0.05), ds, Config{})
	if err != nil {
		t.Fatal(err)
	}
	high, err := Run(newSys(0.8), ds, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		if low.RMSEAt(r, 0) <= high.RMSEAt(r, 0) {
			t.Fatalf("resource %d: B=0.05 error %v not worse than B=0.8 error %v",
				r, low.RMSEAt(r, 0), high.RMSEAt(r, 0))
		}
	}
	if !(low.MeanFrequency < 0.1 && high.MeanFrequency > 0.7) {
		t.Fatalf("frequencies %v / %v not tracking budgets", low.MeanFrequency, high.MeanFrequency)
	}
}

// TestRunH0MatchesStore: Run scores h = 0 from the rows each step
// transmits; that must equal scoring the store itself, read after every
// step, also for a system stepped before Run.
func TestRunH0MatchesStore(t *testing.T) {
	t.Parallel()
	ds := makeDataset(t, 16, 120, 6)
	newSys := func() *core.System {
		s, err := core.NewSystem(core.Config{
			Nodes: 16, Resources: 2, K: 3, InitialCollection: 1000,
			Policy: func(int) (transmit.Policy, error) {
				return transmit.NewAdaptive(transmit.AdaptiveConfig{Budget: 0.3})
			},
			Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Step(ds.Data[len(ds.Data)-1]); err != nil {
			t.Fatal(err)
		}
		return s
	}
	res, err := Run(newSys(), ds, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ref := newSys()
	want := make([]*metrics.HorizonSet, ds.NumResources())
	for r := range want {
		if want[r], err = metrics.NewHorizonSet(0); err != nil {
			t.Fatal(err)
		}
	}
	for _, x := range ds.Data {
		if _, err := ref.Step(x); err != nil {
			t.Fatal(err)
		}
		z := ref.Stored()
		for r := range want {
			var sq float64
			for i := range x {
				d := z[i][r] - x[i][r]
				sq += d * d
			}
			if err := want[r].Add(0, sqrtMean(sq, len(x))); err != nil {
				t.Fatal(err)
			}
		}
	}
	for r := range want {
		if got, w := res.RMSEAt(r, 0), want[r].At(0); math.Float64bits(got) != math.Float64bits(w) || w == 0 {
			t.Fatalf("resource %d: h=0 RMSE %v, the store's %v", r, got, w)
		}
	}
}
