package core

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"orcf/internal/forecast"
	"orcf/internal/transmit"
)

// twoGroupStep returns N nodes in two groups at the given levels with tiny
// per-node spread.
func twoGroupStep(n int, lo, hi float64) [][]float64 {
	x := make([][]float64, n)
	for i := range x {
		level := lo
		if i >= n/2 {
			level = hi
		}
		x[i] = []float64{level + 0.002*float64(i%3)}
	}
	return x
}

func alwaysPolicy(int) (transmit.Policy, error) { return transmit.Always{}, nil }

func TestNewSystemValidation(t *testing.T) {
	t.Parallel()
	if _, err := NewSystem(Config{Nodes: -1}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("-1 nodes: want ErrBadConfig, got %v", err)
	}
	// Nodes: 0 is a legal elastic start — the fleet grows through AddNodes.
	if _, err := NewSystem(Config{Nodes: 0, K: 3}); err != nil {
		t.Fatalf("0 nodes (elastic start): %v", err)
	}
	if _, err := NewSystem(Config{Nodes: 3, AbsenceTimeout: -1}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("negative absence timeout: want ErrBadConfig, got %v", err)
	}
	if _, err := NewSystem(Config{Nodes: 2, K: 5}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("K>N: want ErrBadConfig, got %v", err)
	}
	// Memberships are int32 in the ring, the snapshot and the plan. An
	// elastic start skips the K ≤ N check, so the bound is its own.
	if _, err := NewSystem(Config{Nodes: 0, K: math.MaxInt32 + 1}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("K>MaxInt32: want ErrBadConfig, got %v", err)
	}
	if _, err := NewSystem(Config{Nodes: 4, Policy: func(int) (transmit.Policy, error) { return nil, nil }}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("nil policy: want ErrBadConfig, got %v", err)
	}
	bad := errors.New("boom")
	if _, err := NewSystem(Config{Nodes: 4, Policy: func(int) (transmit.Policy, error) { return nil, bad }}); !errors.Is(err, bad) {
		t.Fatalf("policy error not wrapped: %v", err)
	}
	for _, tt := range []struct {
		name  string
		build func(Config) (*System, error)
	}{{"NewSystem", NewSystem}, {"NewCentral", NewCentral}} {
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			if _, err := tt.build(Config{Nodes: 4, Resources: -1}); !errors.Is(err, ErrBadConfig) {
				t.Fatalf("%s with -1 resources: want ErrBadConfig, got %v", tt.name, err)
			}
			if _, err := tt.build(Config{Nodes: 4, Resources: -3, JointClustering: true}); !errors.Is(err, ErrBadConfig) {
				t.Fatalf("%s with -3 joint resources: want ErrBadConfig, got %v", tt.name, err)
			}
			// Negative schedules, K and M, and an unknown similarity measure are
			// the ensemble's and the tracker's to reject; core reports them as
			// its own. A negative M′ means "current step only" and stays valid.
			for _, c := range []struct {
				name string
				cfg  Config
			}{
				{"initial collection -3", Config{InitialCollection: -3}},
				{"retrain every -1", Config{RetrainEvery: -1}},
				{"fit window -1", Config{FitWindow: -1}},
				{"K -1", Config{K: -1}},
				{"M -1", Config{M: -1}},
				{"similarity 99", Config{Similarity: 99}},
			} {
				c.cfg.Nodes = 4
				if _, err := tt.build(c.cfg); !errors.Is(err, ErrBadConfig) {
					t.Fatalf("%s with %s: want ErrBadConfig, got %v", tt.name, c.name, err)
				}
			}
			if _, err := tt.build(Config{Nodes: 4, MPrime: -1}); err != nil {
				t.Fatalf("%s with M' -1: %v", tt.name, err)
			}
			// holt-winters (season 288) fits no series shorter than 576 values:
			// the first fit's series — the warm-up, cut to FitWindow — must hold
			// that many, alone or in a zoo. A config accepted at its minimum
			// must then make its first fit.
			for _, z := range []struct {
				families        []string
				initial, window int
				wantErr         bool
			}{
				{[]string{"holt-winters"}, 50, 0, true},
				{[]string{"ses", "holt-winters"}, 50, 0, true},
				{[]string{"holt-winters"}, 1000, 200, true},
				{[]string{"holt-winters"}, 575, 0, true},
				{[]string{"holt-winters"}, 576, 0, false},
				{[]string{"ses", "holt-winters"}, 1000, 576, false},
				{[]string{"ar"}, 5, 0, true},
				{[]string{"ar"}, 6, 0, false},
				{[]string{"arima"}, 5, 0, true},
				{[]string{"arima"}, 6, 0, false},
			} {
				zoo, err := forecast.Zoo(z.families...)
				if err != nil {
					t.Fatal(err)
				}
				s, err := tt.build(Config{Nodes: 4, K: 2, InitialCollection: z.initial, FitWindow: z.window, Zoo: zoo})
				if got := errors.Is(err, ErrBadConfig); got != z.wantErr {
					t.Fatalf("%s with zoo %v, warm-up %d, FitWindow %d: err %v, want ErrBadConfig %v",
						tt.name, z.families, z.initial, z.window, err, z.wantErr)
				}
				if err != nil {
					continue
				}
				arrived := []bool{true, true, true, true}
				for step := range z.initial {
					lo := 0.1 + 0.03*float64(step%4)
					if _, err := s.StepArrivals(twoGroupStep(4, lo, 0.9-lo), arrived); err != nil {
						t.Fatalf("%s with zoo %v, warm-up %d: step %d: %v", tt.name, z.families, z.initial, step+1, err)
					}
				}
				if _, err := s.Forecast(1); err != nil {
					t.Fatalf("%s with zoo %v, warm-up %d: first fit: %v", tt.name, z.families, z.initial, err)
				}
			}
		})
	}
}

func TestStepValidation(t *testing.T) {
	t.Parallel()
	s, err := NewSystem(Config{Nodes: 4, K: 2, InitialCollection: 5, Policy: alwaysPolicy})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(twoGroupStep(3, 0.1, 0.9)); !errors.Is(err, ErrBadInput) {
		t.Fatalf("wrong N: want ErrBadInput, got %v", err)
	}
	if _, err := s.Step([][]float64{{1, 2}, {1, 2}, {1, 2}, {1, 2}}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("wrong dim: want ErrBadInput, got %v", err)
	}
}

func TestPipelineEndToEndSampleAndHold(t *testing.T) {
	t.Parallel()
	n := 12
	s, err := NewSystem(Config{
		Nodes: n, K: 2, InitialCollection: 20, RetrainEvery: 50,
		MPrime: 3, Policy: alwaysPolicy, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Ready() {
		t.Fatal("system should not be ready before warmup")
	}
	if _, err := s.Forecast(5); !errors.Is(err, ErrNotReady) {
		t.Fatalf("want ErrNotReady, got %v", err)
	}
	for step := 0; step < 25; step++ {
		res, err := s.Step(twoGroupStep(n, 0.2, 0.8))
		if err != nil {
			t.Fatal(err)
		}
		if res.T != step+1 {
			t.Fatalf("T=%d, want %d", res.T, step+1)
		}
		if len(res.PerResource) != 1 || len(res.PerResource[0].Centroids) != 2 {
			t.Fatalf("unexpected per-resource shape")
		}
	}
	if !s.Ready() {
		t.Fatal("system should be ready after warmup")
	}
	f, err := s.Forecast(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(f) != 4 || len(f[0]) != n || len(f[0][0]) != 1 {
		t.Fatalf("forecast shape [%d][%d][%d]", len(f), len(f[0]), len(f[0][0]))
	}
	// Sample-and-hold with stable groups: forecasts land near the node
	// levels (centroid + offset reconstructs each node closely).
	for i := 0; i < n; i++ {
		want := 0.2
		if i >= n/2 {
			want = 0.8
		}
		if math.Abs(f[0][i][0]-want) > 0.05 {
			t.Fatalf("node %d forecast %v, want ≈ %v", i, f[0][i][0], want)
		}
	}
}

func TestOffsetReconstructsNodePosition(t *testing.T) {
	t.Parallel()
	// All policies Always, so z == x. Node levels distinct inside a group:
	// offsets must recover per-node deviation from the centroid.
	n := 6
	s, err := NewSystem(Config{
		Nodes: n, K: 2, InitialCollection: 10, MPrime: 2,
		Policy: alwaysPolicy, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	mk := func() [][]float64 {
		// group A: 0.10, 0.14, 0.18; group B: 0.80, 0.84, 0.88
		return [][]float64{{0.10}, {0.14}, {0.18}, {0.80}, {0.84}, {0.88}}
	}
	for step := 0; step < 12; step++ {
		if _, err := s.Step(mk()); err != nil {
			t.Fatal(err)
		}
	}
	f, err := s.Forecast(1)
	if err != nil {
		t.Fatal(err)
	}
	wants := []float64{0.10, 0.14, 0.18, 0.80, 0.84, 0.88}
	for i, want := range wants {
		if math.Abs(f[0][i][0]-want) > 1e-6 {
			t.Fatalf("node %d forecast %v, want %v", i, f[0][i][0], want)
		}
	}
}

func TestMultiResourceScalarClustering(t *testing.T) {
	t.Parallel()
	n := 8
	s, err := NewSystem(Config{
		Nodes: n, Resources: 2, K: 2, InitialCollection: 8,
		Policy: alwaysPolicy, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	mk := func() [][]float64 {
		x := make([][]float64, n)
		for i := range x {
			cpu := 0.2
			if i >= n/2 {
				cpu = 0.8
			}
			// Memory grouping is the opposite: exercises independence.
			mem := 0.7
			if i >= n/2 {
				mem = 0.3
			}
			x[i] = []float64{cpu, mem}
		}
		return x
	}
	var last *StepResult
	for step := 0; step < 10; step++ {
		var err error
		last, err = s.Step(mk())
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(last.PerResource) != 2 {
		t.Fatalf("expected 2 trackers, got %d", len(last.PerResource))
	}
	f, err := s.Forecast(1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f[0][0][0]-0.2) > 0.02 || math.Abs(f[0][0][1]-0.7) > 0.02 {
		t.Fatalf("node 0 forecast %v, want ≈ [0.2 0.7]", f[0][0])
	}
	if math.Abs(f[0][n-1][0]-0.8) > 0.02 || math.Abs(f[0][n-1][1]-0.3) > 0.02 {
		t.Fatalf("node %d forecast %v, want ≈ [0.8 0.3]", n-1, f[0][n-1])
	}
}

func TestJointClustering(t *testing.T) {
	t.Parallel()
	n := 8
	s, err := NewSystem(Config{
		Nodes: n, Resources: 2, K: 2, InitialCollection: 8,
		JointClustering: true, Policy: alwaysPolicy, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	mk := func() [][]float64 {
		x := make([][]float64, n)
		for i := range x {
			if i < n/2 {
				x[i] = []float64{0.2, 0.3}
			} else {
				x[i] = []float64{0.8, 0.7}
			}
		}
		return x
	}
	var last *StepResult
	for step := 0; step < 10; step++ {
		var err error
		last, err = s.Step(mk())
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(last.PerResource) != 1 {
		t.Fatalf("joint clustering should have 1 tracker, got %d", len(last.PerResource))
	}
	if len(last.PerResource[0].Centroids[0]) != 2 {
		t.Fatal("joint centroids should be 2-dimensional")
	}
	f, err := s.Forecast(2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f[1][0][0]-0.2) > 0.02 || math.Abs(f[1][0][1]-0.3) > 0.02 {
		t.Fatalf("joint forecast node 0 = %v", f[1][0])
	}
}

func TestTransmissionBudgetRespected(t *testing.T) {
	t.Parallel()
	n := 10
	const budget = 0.3
	s, err := NewSystem(Config{
		Nodes: n, K: 2, InitialCollection: 50,
		Policy: func(int) (transmit.Policy, error) {
			return transmit.NewAdaptive(transmit.AdaptiveConfig{Budget: budget})
		},
		Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(7, 7))
	for step := 0; step < 2000; step++ {
		x := make([][]float64, n)
		for i := range x {
			x[i] = []float64{rng.Float64()}
		}
		if _, err := s.Step(x); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if f := s.Frequency(i); math.Abs(f-budget) > 0.03 {
			t.Fatalf("node %d frequency %v, budget %v", i, f, budget)
		}
	}
	if mf := s.MeanFrequency(); math.Abs(mf-budget) > 0.02 {
		t.Fatalf("mean frequency %v", mf)
	}
}

func TestStoredReflectsTransmissions(t *testing.T) {
	t.Parallel()
	n := 4
	// A once policy: transmits only on the first step.
	s, err := NewSystem(Config{
		Nodes: n, K: 2, InitialCollection: 5,
		Policy: func(int) (transmit.Policy, error) { return &once{}, nil },
		Seed:   8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(twoGroupStep(n, 0.1, 0.9)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(twoGroupStep(n, 0.5, 0.5)); err != nil {
		t.Fatal(err)
	}
	z := s.Stored()
	// Values still from step 1.
	if z[0][0] != 0.1 || z[n-1][0] != 0.9+0.002*float64((n-1)%3) {
		t.Fatalf("stored values %v should be from the first step", z)
	}
}

func TestModeClusterAndAlphaScaling(t *testing.T) {
	t.Parallel()
	// α-scaling: a node that hops clusters briefly must not get an offset
	// that drags its forecast into the other cluster.
	centroids, delta := []float64{0.2, 0.8}, make([]float64, 1)
	alpha := maxAlphaInCell([]float64{0.9}, 0, centroids, delta)
	// δ = 0.7, boundary at midpoint 0.5: α·0.7 ≤ 0.3 → α ≤ 3/7.
	if math.Abs(alpha-0.3/0.7) > 1e-12 {
		t.Fatalf("alpha = %v, want %v", alpha, 0.3/0.7)
	}
	// z inside the cell: full offset allowed.
	if a := maxAlphaInCell([]float64{0.3}, 0, centroids, delta); a != 1 {
		t.Fatalf("alpha inside cell = %v, want 1", a)
	}
	// z at the centroid: α=1 by convention.
	if a := maxAlphaInCell([]float64{0.2}, 0, centroids, delta); a != 1 {
		t.Fatalf("alpha at centroid = %v, want 1", a)
	}
	// Moving away from the only other centroid: unconstrained.
	if a := maxAlphaInCell([]float64{0.05}, 0, centroids, delta); a != 1 {
		t.Fatalf("alpha moving away = %v, want 1", a)
	}
}

func TestForecastHorizonValidation(t *testing.T) {
	t.Parallel()
	s, err := NewSystem(Config{Nodes: 4, K: 2, InitialCollection: 3, Policy: alwaysPolicy})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := s.Step(twoGroupStep(4, 0.2, 0.8)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Forecast(0); !errors.Is(err, ErrBadInput) {
		t.Fatalf("h=0: want ErrBadInput, got %v", err)
	}
}

// TestTrainingTimeAccounting counts rounds, not ensembles: with two
// resources both trackers' ensembles fit in each round, and it still counts
// once.
func TestTrainingTimeAccounting(t *testing.T) {
	t.Parallel()
	for _, resources := range []int{1, 2} {
		s, err := NewSystem(Config{
			Nodes: 4, Resources: resources, K: 2, InitialCollection: 5, RetrainEvery: 4,
			Policy: alwaysPolicy,
			Zoo: forecast.Pinned(func() forecast.Model {
				m, err := forecast.NewAR(1)
				if err != nil {
					panic(err)
				}
				return m
			}),
		})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(9, 9))
		start := time.Now()
		for step := 0; step < 14; step++ {
			x := make([][]float64, 4)
			for i := range x {
				base := 0.3
				if i >= 2 {
					base = 0.7
				}
				x[i] = make([]float64, resources)
				for r := range x[i] {
					x[i][r] = base + 0.05*rng.Float64()
				}
			}
			if _, err := s.Step(x); err != nil {
				t.Fatal(err)
			}
		}
		wall := time.Since(start)
		// Initial fit at t=5, retrains at t=9, 13 → 3 rounds.
		d, runs := s.TrainingTime()
		if runs != 3 {
			t.Fatalf("resources %d: training rounds = %d, want 3", resources, runs)
		}
		if d > wall {
			t.Fatalf("resources %d: training time %v exceeds the %v the steps took", resources, d, wall)
		}
	}
}

func TestCentroidSeriesExposure(t *testing.T) {
	t.Parallel()
	s, err := NewSystem(Config{Nodes: 4, K: 2, InitialCollection: 100, Policy: alwaysPolicy})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := s.Step(twoGroupStep(4, 0.2, 0.8)); err != nil {
			t.Fatal(err)
		}
	}
	series := s.CentroidSeries(0, 0, 0)
	if len(series) != 6 {
		t.Fatalf("centroid series length %d, want 6", len(series))
	}
	if s.CentroidSeries(5, 0, 0) != nil || s.CentroidSeries(0, 5, 0) != nil || s.CentroidSeries(0, 0, 3) != nil {
		t.Fatal("out-of-range tracker, cluster or dim should give nil")
	}
}

func TestForecastClamping(t *testing.T) {
	t.Parallel()
	// A strong downward trend with an AR-trend model would forecast below
	// zero; clamping keeps it at 0.
	s, err := NewSystem(Config{
		Nodes: 2, K: 1, InitialCollection: 30, MPrime: -1,
		Policy: alwaysPolicy,
		Zoo: forecast.Pinned(func() forecast.Model {
			return forecast.NewAutoARIMA(forecast.Grid{MaxP: 1, MaxD: 1}) // selects ARIMA(1,1,0)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		v := math.Max(0, 0.3-0.01*float64(i))
		if _, err := s.Step([][]float64{{v}, {v}}); err != nil {
			t.Fatal(err)
		}
	}
	f, err := s.Forecast(50)
	if err != nil {
		t.Fatal(err)
	}
	for hi := range f {
		if f[hi][0][0] < 0 || f[hi][0][0] > 1 {
			t.Fatalf("forecast %v escaped [0,1]", f[hi][0][0])
		}
	}
}
