package gaussian

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"
)

// correlatedSamples builds T samples of n nodes arranged in g groups driven
// by shared latent factors: nodes within a group are strongly correlated.
func correlatedSamples(rng *rand.Rand, tSteps, n, g int, noise float64) [][]float64 {
	out := make([][]float64, tSteps)
	for t := range out {
		factors := make([]float64, g)
		for i := range factors {
			factors[i] = rng.NormFloat64()
		}
		row := make([]float64, n)
		for i := 0; i < n; i++ {
			row[i] = 0.5 + 0.2*factors[i%g] + noise*rng.NormFloat64()
		}
		out[t] = row
	}
	return out
}

func TestTrainValidation(t *testing.T) {
	t.Parallel()
	if _, err := Train(nil); !errors.Is(err, ErrBadInput) {
		t.Fatalf("nil: want ErrBadInput, got %v", err)
	}
	if _, err := Train([][]float64{{1}}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("single sample: want ErrBadInput, got %v", err)
	}
	if _, err := Train([][]float64{{}, {}}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("zero nodes: want ErrBadInput, got %v", err)
	}
	if _, err := Train([][]float64{{1, 2}, {1}}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("ragged: want ErrBadInput, got %v", err)
	}
}

func TestTrainMoments(t *testing.T) {
	t.Parallel()
	samples := [][]float64{{1, 10}, {3, 14}, {2, 12}}
	m, err := Train(samples)
	if err != nil {
		t.Fatal(err)
	}
	mean := m.Mean()
	if mean[0] != 2 || mean[1] != 12 {
		t.Fatalf("mean = %v, want [2 12]", mean)
	}
	// cov(x,y) with x={1,3,2}, y={10,14,12}: Σ(dx·dy)/2 = (2+2+0)/2 = 2.
	if got := m.cov.At(0, 1); math.Abs(got-2) > 1e-12 {
		t.Fatalf("cov(0,1) = %v, want 2", got)
	}
	if m.n != 2 {
		t.Fatalf("model covers %d nodes, want 2", m.n)
	}
}

func TestSelectMonitorsValidation(t *testing.T) {
	t.Parallel()
	m, err := Train([][]float64{{1, 2, 3}, {2, 3, 4}, {0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.SelectMonitors(0, TopW); !errors.Is(err, ErrBadInput) {
		t.Fatalf("k=0: want ErrBadInput, got %v", err)
	}
	if _, err := m.SelectMonitors(4, TopW); !errors.Is(err, ErrBadInput) {
		t.Fatalf("k>n: want ErrBadInput, got %v", err)
	}
	if _, err := m.SelectMonitors(1, Strategy(99)); !errors.Is(err, ErrBadInput) {
		t.Fatalf("bad strategy: want ErrBadInput, got %v", err)
	}
}

func TestSelectMonitorsAllStrategies(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewPCG(1, 1))
	samples := correlatedSamples(rng, 400, 20, 4, 0.02)
	m, err := Train(samples)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []Strategy{TopW, TopWUpdate, BatchSelect} {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			t.Parallel()
			mon, err := m.SelectMonitors(4, strat)
			if err != nil {
				t.Fatal(err)
			}
			if len(mon) != 4 {
				t.Fatalf("selected %d monitors, want 4", len(mon))
			}
			seen := map[int]bool{}
			for _, idx := range mon {
				if idx < 0 || idx >= 20 || seen[idx] {
					t.Fatalf("invalid selection %v", mon)
				}
				seen[idx] = true
			}
		})
	}
}

func TestGreedyStrategiesCoverGroups(t *testing.T) {
	t.Parallel()
	// Four independent groups: greedy conditional strategies should pick
	// monitors spanning distinct groups (one observation per latent factor)
	// rather than four nodes from one group.
	rng := rand.New(rand.NewPCG(2, 2))
	samples := correlatedSamples(rng, 2000, 16, 4, 0.01)
	m, err := Train(samples)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []Strategy{TopWUpdate, BatchSelect} {
		mon, err := m.SelectMonitors(4, strat)
		if err != nil {
			t.Fatal(err)
		}
		groups := map[int]bool{}
		for _, idx := range mon {
			groups[idx%4] = true
		}
		if len(groups) != 4 {
			t.Errorf("%v picked groups %v from monitors %v, want all 4", strat, groups, mon)
		}
	}
}

func TestInferReconstructsCorrelatedNodes(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewPCG(3, 3))
	train := correlatedSamples(rng, 3000, 12, 3, 0.01)
	m, err := Train(train)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := m.SelectMonitors(3, TopWUpdate)
	if err != nil {
		t.Fatal(err)
	}
	inf, err := m.NewInferrer(mon)
	if err != nil {
		t.Fatal(err)
	}
	// Fresh test samples from the same process.
	test := correlatedSamples(rng, 200, 12, 3, 0.01)
	var sqInfer, sqMean float64
	var count int
	for _, truth := range test {
		obs := make([]float64, len(mon))
		for j, idx := range mon {
			obs[j] = truth[idx]
		}
		rec, err := inf.Infer(obs)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range rec {
			d := v - truth[i]
			sqInfer += d * d
			dm := m.Mean()[i] - truth[i]
			sqMean += dm * dm
			count++
		}
	}
	rmseInfer := math.Sqrt(sqInfer / float64(count))
	rmseMean := math.Sqrt(sqMean / float64(count))
	if rmseInfer >= rmseMean*0.5 {
		t.Fatalf("conditional inference RMSE %v should be well below mean-only %v",
			rmseInfer, rmseMean)
	}
}

func TestInferMonitorsKeepObservedValues(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewPCG(4, 4))
	train := correlatedSamples(rng, 300, 6, 2, 0.05)
	m, err := Train(train)
	if err != nil {
		t.Fatal(err)
	}
	mon := []int{1, 4}
	inf, err := m.NewInferrer(mon)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := inf.Infer([]float64{0.77, 0.33})
	if err != nil {
		t.Fatal(err)
	}
	if rec[1] != 0.77 || rec[4] != 0.33 {
		t.Fatalf("monitor values altered: %v", rec)
	}
}

func TestInferrerValidation(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewPCG(5, 5))
	m, err := Train(correlatedSamples(rng, 100, 5, 2, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.NewInferrer(nil); !errors.Is(err, ErrBadInput) {
		t.Fatalf("empty monitors: want ErrBadInput, got %v", err)
	}
	if _, err := m.NewInferrer([]int{7}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("out of range: want ErrBadInput, got %v", err)
	}
	if _, err := m.NewInferrer([]int{1, 1}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("duplicate: want ErrBadInput, got %v", err)
	}
	inf, err := m.NewInferrer([]int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inf.Infer([]float64{1}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("wrong obs length: want ErrBadInput, got %v", err)
	}
}

func TestInferrerAllNodesMonitored(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewPCG(6, 6))
	m, err := Train(correlatedSamples(rng, 100, 3, 1, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	inf, err := m.NewInferrer([]int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := inf.Infer([]float64{0.1, 0.2, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{0.1, 0.2, 0.3} {
		if rec[i] != want {
			t.Fatalf("rec = %v", rec)
		}
	}
}

func TestStrategyString(t *testing.T) {
	t.Parallel()
	if TopW.String() != "top-w" || TopWUpdate.String() != "top-w-update" ||
		BatchSelect.String() != "batch-selection" {
		t.Fatal("strategy names wrong")
	}
	if Strategy(42).String() == "" {
		t.Fatal("unknown strategy should render")
	}
}
