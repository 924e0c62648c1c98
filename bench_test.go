package orcf

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation section, plus the ablation suite. Each benchmark runs
// the corresponding experiment regenerator at a reduced scale so the whole
// `go test -bench=. -benchmem` pass completes on a laptop; the reported
// ns/op measures one full regeneration of that experiment.
//
// To regenerate the tables at the readable quick scale (or paper scale), use
// the CLI instead: `go run ./cmd/repro -exp fig4` or `-exp all [-full]`.

import (
	"math"
	"runtime"
	"testing"

	"orcf/internal/core"
	"orcf/internal/exp"
	"orcf/internal/forecast"
)

// benchOptions is the reduced scale shared by all experiment benchmarks.
func benchOptions() exp.Options {
	return exp.Options{
		Nodes: 32, Steps: 400, Warmup: 150, Seed: 1,
		ForecastEvery: 25, LSTMEpochs: 3, FitWindow: 200,
	}
}

// benchGaussianOptions needs the full 500+500 train/test phases of §VI-E.
func benchGaussianOptions() exp.Options {
	o := benchOptions()
	o.Steps = 1100
	return o
}

func runExpBenchmark(b *testing.B, fn func(exp.Options) (*exp.Table, error), o exp.Options) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab, err := fn(o)
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatal("empty result table")
		}
	}
}

// BenchmarkFig1CorrelationCDF regenerates the motivational correlation-CDF
// comparison (sensor vs cluster data).
func BenchmarkFig1CorrelationCDF(b *testing.B) {
	runExpBenchmark(b, exp.Fig1, benchOptions())
}

// BenchmarkFig3AdaptiveTransmission regenerates the requested-vs-actual
// transmission frequency sweep.
func BenchmarkFig3AdaptiveTransmission(b *testing.B) {
	runExpBenchmark(b, exp.Fig3, benchOptions())
}

// BenchmarkFig4TransmissionRMSE regenerates the adaptive-vs-uniform h=0
// RMSE comparison.
func BenchmarkFig4TransmissionRMSE(b *testing.B) {
	runExpBenchmark(b, exp.Fig4, benchOptions())
}

// BenchmarkFig5TemporalDim regenerates the temporal-clustering-dimension
// sweep.
func BenchmarkFig5TemporalDim(b *testing.B) {
	runExpBenchmark(b, exp.Fig5, benchOptions())
}

// BenchmarkTable1ScalarVsVector regenerates the scalar-vs-full-vector
// clustering comparison.
func BenchmarkTable1ScalarVsVector(b *testing.B) {
	runExpBenchmark(b, exp.Table1, benchOptions())
}

// BenchmarkFig6ClusteringVsB regenerates the intermediate-RMSE-vs-budget
// comparison of clustering methods.
func BenchmarkFig6ClusteringVsB(b *testing.B) {
	runExpBenchmark(b, exp.Fig6, benchOptions())
}

// BenchmarkFig7ClusteringVsK regenerates the intermediate-RMSE-vs-K
// comparison of clustering methods.
func BenchmarkFig7ClusteringVsK(b *testing.B) {
	runExpBenchmark(b, exp.Fig7, benchOptions())
}

// BenchmarkFig8CentroidForecast regenerates the instantaneous centroid
// tracking comparison (ARIMA / LSTM / sample-and-hold).
func BenchmarkFig8CentroidForecast(b *testing.B) {
	runExpBenchmark(b, exp.Fig8, benchOptions())
}

// BenchmarkFig9ForecastModels regenerates the model comparison across
// forecast horizons on the full pipeline.
func BenchmarkFig9ForecastModels(b *testing.B) {
	runExpBenchmark(b, exp.Fig9, benchOptions())
}

// BenchmarkTable2TrainingTime regenerates the ARIMA-vs-LSTM training-time
// accounting.
func BenchmarkTable2TrainingTime(b *testing.B) {
	runExpBenchmark(b, exp.Table2, benchOptions())
}

// BenchmarkFig10ClusteringForecast regenerates the clustering-method
// comparison under sample-and-hold forecasting.
func BenchmarkFig10ClusteringForecast(b *testing.B) {
	runExpBenchmark(b, exp.Fig10, benchOptions())
}

// BenchmarkTable3MMPrime regenerates the M × M′ sensitivity grid.
func BenchmarkTable3MMPrime(b *testing.B) {
	runExpBenchmark(b, exp.Table3, benchOptions())
}

// BenchmarkFig11Similarity regenerates the proposed-similarity-vs-Jaccard
// comparison.
func BenchmarkFig11Similarity(b *testing.B) {
	runExpBenchmark(b, exp.Fig11, benchOptions())
}

// BenchmarkFig12GaussianComparison regenerates the comparison against the
// Gaussian monitor-selection baselines.
func BenchmarkFig12GaussianComparison(b *testing.B) {
	runExpBenchmark(b, exp.Fig12, benchGaussianOptions())
}

// BenchmarkTable4GaussianTime regenerates the per-approach computation-time
// table.
func BenchmarkTable4GaussianTime(b *testing.B) {
	runExpBenchmark(b, exp.Table4, benchGaussianOptions())
}

// BenchmarkAblations regenerates the design-choice ablation table
// (re-indexing, α-clamp, M′, adaptive policy).
func BenchmarkAblations(b *testing.B) {
	runExpBenchmark(b, exp.Ablations, benchOptions())
}

// benchPipelineStep measures the steady-state cost of one online step of
// the full system (transmission decisions + clustering + model updates) at
// the given fleet size with two resources — the per-tick cost a deployment
// would pay. steps is the trace length cycled through; churnEvery > 0
// additionally replaces 8 members every churnEvery-th iteration (outside the
// timer), exercising the membership-change fallback of the incremental path.
func benchPipelineStep(b *testing.B, nodes, steps, workers, churnEvery int, opts ...Option) {
	b.Helper()
	benchPipelineStepD(b, nodes, 2, steps, workers, churnEvery, opts...)
}

// benchPipelineStepD is benchPipelineStep with the number of resources d
// exposed; the resources are clustered one by one unless opts say otherwise.
func benchPipelineStepD(b *testing.B, nodes, resources, steps, workers, churnEvery int, opts ...Option) {
	b.Helper()
	ds, err := GenerateTrace(GeneratorConfig{
		Name: "bench", Nodes: nodes, Steps: steps, Resources: resources, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	opts = append([]Option{WithBudget(0.3), WithTrainingSchedule(1_000_000, 1_000_000),
		WithSeed(1), WithWorkers(workers)}, opts...)
	sys, err := New(nodes, resources, opts...)
	if err != nil {
		b.Fatal(err)
	}
	// Warm the pipeline so the timed loop measures the steady state (first
	// transmissions, buffer growth, and the first full refit are excluded).
	for t := 0; t < 3; t++ {
		if _, err := sys.Step(ds.Data[t%ds.Steps()]); err != nil {
			b.Fatal(err)
		}
	}
	nextID := nodes
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if churnEvery > 0 && i%churnEvery == churnEvery-1 {
			b.StopTimer()
			members := sys.Members()
			fresh := make([]int, 8)
			for j := range fresh {
				if err := sys.RemoveNodes(members[(j*17)%len(members)]); err != nil {
					b.Fatal(err)
				}
				fresh[j] = nextID
				nextID++
			}
			if err := sys.AddNodes(fresh...); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if _, err := sys.Step(ds.Data[i%ds.Steps()]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportRetainedPerSlot(b, sys, nodes)
}

// reportRetainedPerSlot reports the heap a stepped system keeps alive per
// fleet slot as B/slot: the live heap after a collection with the system,
// less the live heap after a collection without it.
func reportRetainedPerSlot(b *testing.B, sys *System, slots int) {
	var with, without runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&with)
	runtime.KeepAlive(sys)
	sys = nil
	runtime.GC()
	runtime.ReadMemStats(&without)
	b.ReportMetric(float64(int64(with.HeapAlloc)-int64(without.HeapAlloc))/float64(slots), "B/slot")
}

// BenchmarkPipelineStep is the online-step family of the perf trajectory:
//
//   - N=256: the historical default scale (worker pool at GOMAXPROCS).
//   - N=10000: the single-core speed-wall headline — incremental eq. (10)
//     refits warm-start from the previous centroids, so the steady state
//     skips K-means entirely on most steps.
//   - N=10000-full: the same fleet with incremental refits disabled; the
//     ratio to N=10000 is the speedup the incremental path buys.
//   - N=10000-churn: incremental under membership churn (8 of 10000 members
//     replaced every 8th step, outside the timer), paying the full-refit
//     fallback on churn steps.
//   - N=10000-d4 and N=10000-d4-joint: four resources with a full refit per
//     step, as four scalar clusterings and as one joint 4-dimensional one.
func BenchmarkPipelineStep(b *testing.B) {
	b.Run("N=256", func(b *testing.B) { benchPipelineStep(b, 256, 64, 0, 0) })
	b.Run("N=10000", func(b *testing.B) {
		benchPipelineStep(b, 10000, 24, 0, 0, WithIncrementalRefit(0))
	})
	b.Run("N=10000-full", func(b *testing.B) { benchPipelineStep(b, 10000, 24, 0, 0) })
	b.Run("N=10000-churn", func(b *testing.B) {
		benchPipelineStep(b, 10000, 24, 0, 8, WithIncrementalRefit(0))
	})
	// Four resources, still clustered per resource: four scalar trackers,
	// each paying a full d=1 K-means refit per step (no incremental refits).
	b.Run("N=10000-d4", func(b *testing.B) {
		benchPipelineStepD(b, 10000, 4, 24, 0, 0)
	})
	// The same fleet clustered jointly: one tracker over 4-dimensional
	// points, a full d=4 K-means refit per step — the vector distance path
	// and the shape of the repository benchmark's step_joint_d4 workload.
	b.Run("N=10000-d4-joint", func(b *testing.B) {
		benchPipelineStepD(b, 10000, 4, 24, 0, 0, WithJointClustering())
	})
}

// BenchmarkPipelineStepSerial pins the worker pool to one worker at the
// historical N=256 scale. The outputs are bit-identical to the pooled run
// (see core.TestParallelMatchesSerialExactly); comparing the two isolates
// the multi-core speedup from the allocation reductions, which both share.
func BenchmarkPipelineStepSerial(b *testing.B) { benchPipelineStep(b, 256, 64, 1, 0) }

// benchForecastQuery measures producing a 50-step forecast for all nodes
// from a warm system.
func benchForecastQuery(b *testing.B, workers int) {
	b.Helper()
	ds, err := GenerateTrace(GeneratorConfig{Name: "bench", Nodes: 128, Steps: 80, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	sys, err := New(128, 2, WithAlwaysTransmit(), WithTrainingSchedule(60, 1000),
		WithSeed(1), WithWorkers(workers))
	if err != nil {
		b.Fatal(err)
	}
	for t := 0; t < ds.Steps(); t++ {
		if _, err := sys.Step(ds.Data[t]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Forecast(50); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForecastQuery / BenchmarkForecastQuerySerial mirror the
// PipelineStep pair for the per-node forecast reconstruction path.
func BenchmarkForecastQuery(b *testing.B)       { benchForecastQuery(b, 0) }
func BenchmarkForecastQuerySerial(b *testing.B) { benchForecastQuery(b, 1) }

// BenchmarkRefitRound measures one retraining step of a core.System with
// the repository benchmark's zoo_durable model schedule: five families, K = 3,
// two resources clustered one by one, a 200-step fit window and a retrain
// every 25 steps. ns/op is the whole step, and the round's 30 model fits —
// 15 per tracker, all on one list — dominate it. The 24 steps between two
// rounds run outside the timer. Run it with -cpu 1,2 to see how the list
// spreads over the worker pool; the models are identical for any count.
func BenchmarkRefitRound(b *testing.B) {
	const (
		nodes        = 64
		fitWindow    = 200
		retrainEvery = 25
	)
	ds, err := GenerateTrace(GeneratorConfig{Name: "bench", Nodes: nodes, Steps: 1152, Resources: 2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	zoo, err := forecast.Zoo("sample-and-hold", "ses", "holt", "ar", "arima")
	if err != nil {
		b.Fatal(err)
	}
	sys, err := core.NewSystem(core.Config{
		Nodes: nodes, Resources: 2, K: 3,
		InitialCollection: fitWindow,
		RetrainEvery:      retrainEvery,
		FitWindow:         fitWindow,
		Zoo:               zoo,
		Seed:              1,
	})
	if err != nil {
		b.Fatal(err)
	}
	t := 0
	step := func() {
		if _, err := sys.Step(ds.Data[t%ds.Steps()]); err != nil {
			b.Fatal(err)
		}
		t++
	}
	// The initial training, then up to the step before the next round.
	for t < fitWindow+retrainEvery-1 {
		step()
	}
	_, before := sys.TrainingTime()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
		b.StopTimer()
		for j := 1; j < retrainEvery; j++ {
			step()
		}
		b.StartTimer()
	}
	b.StopTimer()
	if _, after := sys.TrainingTime(); after-before != b.N {
		b.Fatalf("%d rounds in %d retraining steps", after-before, b.N)
	}
}

// BenchmarkEnsembleSelect measures the steady-state per-step overhead the model
// zoo adds on top of a single family: updating every candidate, scoring the
// cached 1-step forecasts against the new centroids, running the
// champion/challenger selector, and refreshing the forecast cache. Refits are
// pushed out of the timed loop (RetrainEvery is huge), so ns/op is pure
// selection-plane cost for a 4-family, 3×2-cell zoo.
func BenchmarkEnsembleSelect(b *testing.B) {
	const warm = 192
	zoo, err := forecast.Zoo("sample-and-hold", "ses", "holt", "ar")
	if err != nil {
		b.Fatal(err)
	}
	ens, err := forecast.NewEnsemble(forecast.EnsembleConfig{
		Clusters: 3, Dims: 2,
		InitialCollection: warm,
		RetrainEvery:      1 << 30,
		Candidates:        zoo,
	})
	if err != nil {
		b.Fatal(err)
	}
	centroids := func(t int) [][]float64 {
		out := make([][]float64, 3)
		for j := range out {
			phase := float64(j) * 2.1
			out[j] = []float64{
				0.4 + 0.2*math.Sin(float64(t)/12+phase),
				0.5 + 0.1*math.Cos(float64(t)/9+phase),
			}
		}
		return out
	}
	for t := 0; t < warm; t++ {
		if err := ens.Observe(centroids(t)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ens.Observe(centroids(warm + i)); err != nil {
			b.Fatal(err)
		}
	}
}
