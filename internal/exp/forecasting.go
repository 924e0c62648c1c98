package exp

import (
	"fmt"
	"math/rand/v2"

	"orcf/internal/cluster"
	"orcf/internal/core"
	"orcf/internal/forecast"
	"orcf/internal/metrics"
	"orcf/internal/parallel"
	"orcf/internal/sim"
	"orcf/internal/trace"
)

// paperHorizons are the forecast steps scored in Figs. 9–11.
var paperHorizons = []int{1, 5, 10, 25, 50}

// modelBuilders returns the named forecasting model factories used across
// the forecasting experiments.
func (o Options) modelBuilders() map[string]forecast.Builder {
	return map[string]forecast.Builder{
		"ARIMA": func() forecast.Model { return forecast.NewAutoARIMA(o.grid()) },
		"LSTM": func() forecast.Model {
			return forecast.NewLSTM(forecast.LSTMConfig{
				Epochs: o.LSTMEpochs, FitWindow: o.FitWindow, Seed: o.Seed,
			})
		},
		"Sample-and-hold": func() forecast.Model { return forecast.NewSampleAndHold() },
	}
}

// runPipeline evaluates the full pipeline on a dataset with the given
// model, K and clustering (nil: the proposed tracker), scoring the paper
// horizons.
func (o Options) runPipeline(ds *trace.Dataset, k int, builder forecast.Builder, clusterer core.ClustererFactory, simCfg sim.Config) (*sim.Result, error) {
	// Paper scale fits on all history; core bounds every window, so that
	// one is as long as the run.
	fitWindow := o.FitWindow
	if fitWindow == 0 {
		fitWindow = ds.Steps()
	}
	sys, err := core.NewSystem(core.Config{
		Nodes:             ds.Nodes(),
		Resources:         ds.NumResources(),
		K:                 k,
		InitialCollection: o.Warmup,
		RetrainEvery:      retrainEvery,
		FitWindow:         fitWindow,
		Zoo:               forecast.Pinned(builder),
		Seed:              o.Seed,
		Clusterer:         clusterer,
	})
	if err != nil {
		return nil, fmt.Errorf("exp: pipeline: %w", err)
	}
	return sim.Run(sys, ds, simCfg)
}

// Fig8 reproduces the instantaneous centroid-forecast trajectories: how well
// each model's h=5 forecast tracks the true centroid series of the K=3 CPU
// clusters on the Alibaba-like dataset. The table reports the tracking RMSE
// per centroid and model over the post-warmup window, which summarizes the
// visual claim of the figure ("forecasts follow the true centroids").
func Fig8(o Options) (*Table, error) {
	o = o.withDefaults()
	ds, err := o.dataset(trace.AlibabaLike())
	if err != nil {
		return nil, fmt.Errorf("exp: fig8: %w", err)
	}
	series, err := centroidSeries(ds, 0, 3, o.Seed) // CPU, K=3
	if err != nil {
		return nil, err
	}
	tab := &Table{
		Title:  "Fig. 8 — Centroid tracking RMSE of h=5 forecasts (Alibaba CPU, K=3)",
		Header: []string{"model", "centroid 1", "centroid 2", "centroid 3"},
	}
	names := []string{"ARIMA", "LSTM", "Sample-and-hold"}
	builders := o.modelBuilders()
	for _, name := range names {
		row := []string{name}
		for j := 0; j < 3; j++ {
			rmse, err := centroidRMSE(series[j], builders[name](), o, 5)
			if err != nil {
				return nil, fmt.Errorf("exp: fig8 %s centroid %d: %w", name, j, err)
			}
			row = append(row, f4(rmse))
		}
		tab.AddRow(row...)
	}
	return tab, nil
}

// centroidSeries steps the B = 0.3 pipeline over ds, every tracker the
// K = k §V-B tracker seeded PCG(seed, 53), and returns tracker r's K
// centroid series.
func centroidSeries(ds *trace.Dataset, r, k int, seed uint64) ([][]float64, error) {
	sys, err := edge(ds, core.Config{K: k, Clusterer: tracker(k, seed, 53)})
	if err != nil {
		return nil, err
	}
	out := make([][]float64, k)
	for t := 1; t <= ds.Steps(); t++ {
		step, err := sys.Step(ds.Data[t-1])
		if err != nil {
			return nil, fmt.Errorf("exp: centroid series step %d: %w", t, err)
		}
		for j, c := range step.PerResource[r].Centroids {
			out[j] = append(out[j], c[0])
		}
	}
	return out, nil
}

// centroidRMSE drives model through a one-cell forecast.Ensemble over a
// centroid series, on the paper's schedule (§VI-A3): initial training after
// the warmup, then a retrain every retrainEvery steps. Every fifth step once
// trained it scores the h-step forecast against the realized value, and it
// returns the RMSE of those forecasts.
func centroidRMSE(series []float64, model forecast.Model, o Options, h int) (float64, error) {
	if len(series) <= o.Warmup+h {
		return 0, fmt.Errorf("exp: series length %d too short for warmup %d: %w",
			len(series), o.Warmup, trace.ErrBadConfig)
	}
	ens, err := forecast.NewEnsemble(forecast.EnsembleConfig{
		Clusters:          1,
		Dims:              1,
		InitialCollection: o.Warmup,
		RetrainEvery:      retrainEvery,
		FitWindow:         o.FitWindow,
		Candidates:        forecast.Pinned(func() forecast.Model { return model }),
	})
	if err != nil {
		return 0, fmt.Errorf("exp: centroid ensemble: %w", err)
	}
	var acc metrics.Accumulator
	for t := 1; t <= len(series); t++ {
		if err := ens.Observe([][]float64{{series[t-1]}}); err != nil {
			return 0, fmt.Errorf("exp: step %d: %w", t, err)
		}
		if ens.Ready() && t%5 == 0 && t+h <= len(series) {
			f, err := ens.Forecast(h)
			if err != nil {
				return 0, fmt.Errorf("exp: forecast at %d: %w", t, err)
			}
			diff := f[0][0][h-1] - series[t+h-1]
			acc.AddSquared(diff * diff)
		}
	}
	return acc.Value(), nil
}

// Fig9 compares forecasting models on the full pipeline: time-averaged RMSE
// versus forecast step h for ARIMA, LSTM, sample-and-hold with K=3 and K=N,
// and the standard-deviation bound.
func Fig9(o Options) (*Table, error) {
	o = o.withDefaults()
	tab := &Table{
		Title: "Fig. 9 — Time-averaged RMSE vs forecast steps h (dynamic clustering)",
		Header: []string{"dataset", "resource", "h", "ARIMA", "LSTM",
			"S&H K=3", "S&H K=N", "StdDev"},
	}
	simCfg := sim.Config{Horizons: paperHorizons, ForecastEvery: o.ForecastEvery}
	builders := o.modelBuilders()
	presets, datasets, err := o.clusterDatasets("fig9")
	if err != nil {
		return nil, err
	}

	// Phase 1: the deterministic per-preset runs fan out over the preset ×
	// variant grid. k == 0 selects K = N for that dataset.
	variants := []struct {
		name string
		k    int
		b    forecast.Builder
	}{
		{"ARIMA", 3, builders["ARIMA"]},
		{"Sample-and-hold", 3, builders["Sample-and-hold"]},
		{"S&H K=N", 0, builders["Sample-and-hold"]},
	}
	jobs := len(variants)
	named, err := parallel.Map(len(presets)*jobs, func(idx int) (*sim.Result, error) {
		pi, v := idx/jobs, variants[idx%jobs]
		ds := datasets[pi]
		k := v.k
		if k == 0 {
			k = ds.Nodes()
		}
		res, err := o.runPipeline(ds, k, v.b, nil, simCfg)
		if err != nil {
			return nil, fmt.Errorf("exp: fig9 %s %s: %w", presets[pi].Name, v.name, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}

	// Phase 2: the LSTM seed averages, one preset at a time, each fanning out
	// over its lstmRuns seeds.
	lstm := make([]map[int]map[int]float64, len(presets))
	for pi, p := range presets {
		mean, err := o.lstmAveragedRMSE(datasets[pi], simCfg)
		if err != nil {
			return nil, fmt.Errorf("exp: fig9 %s LSTM: %w", p.Name, err)
		}
		lstm[pi] = mean
	}

	for pi, p := range presets {
		ds := datasets[pi]
		arima, sh, shN := named[pi*jobs], named[pi*jobs+1], named[pi*jobs+2]
		for r := 0; r < ds.NumResources(); r++ {
			std := datasetStdDev(ds, r)
			for _, h := range paperHorizons {
				tab.AddRow(p.Name, resourceLabel(ds, r), itoa(h),
					f4(arima.RMSEAt(r, h)),
					f4(lstm[pi][r][h]),
					f4(sh.RMSEAt(r, h)),
					f4(shN.RMSEAt(r, h)),
					f4(std))
			}
		}
	}
	return tab, nil
}

// lstmAveragedRMSE runs the LSTM pipeline over lstmRuns seeds and returns
// the mean RMSE indexed [resource][horizon]. The runs are independent (each
// seeds its own LSTM initializer) and execute on the worker pool; the mean
// is reduced in run order afterwards so the floating-point sum is identical
// to the serial path.
func (o Options) lstmAveragedRMSE(ds *trace.Dataset, simCfg sim.Config) (map[int]map[int]float64, error) {
	runs := o.lstmRuns()
	perRun, err := parallel.Map(runs, func(run int) (*sim.Result, error) {
		seed := o.Seed + uint64(run)*1009
		builder := func() forecast.Model {
			return forecast.NewLSTM(forecast.LSTMConfig{
				Epochs: o.LSTMEpochs, FitWindow: o.FitWindow, Seed: seed,
			})
		}
		return o.runPipeline(ds, 3, builder, nil, simCfg)
	})
	if err != nil {
		return nil, err
	}
	out := make(map[int]map[int]float64)
	for _, res := range perRun {
		for r := 0; r < ds.NumResources(); r++ {
			if out[r] == nil {
				out[r] = make(map[int]float64)
			}
			for _, h := range paperHorizons {
				out[r][h] += res.RMSEAt(r, h) / float64(runs)
			}
		}
	}
	return out, nil
}

// Table2 reports the aggregated training time of ARIMA and LSTM on one
// centroid series over the whole dataset duration, with the paper's
// schedule (initial training then retraining every 288 steps).
func Table2(o Options) (*Table, error) {
	o = o.withDefaults()
	tab := &Table{
		Title:  "Table II — Aggregated training time on one centroid (seconds)",
		Header: []string{"dataset", "steps", "ARIMA", "LSTM"},
	}
	for _, p := range clusterPresets() {
		ds, err := o.dataset(p)
		if err != nil {
			return nil, fmt.Errorf("exp: tab2 %s: %w", p.Name, err)
		}
		series, err := centroidSeries(ds, 0, 3, o.Seed)
		if err != nil {
			return nil, err
		}
		// The ensembles fit these very instances, so each FitDuration sums
		// every training round.
		arima := forecast.NewAutoARIMA(o.grid())
		if _, err := centroidRMSE(series[0], arima, o, 1); err != nil {
			return nil, fmt.Errorf("exp: tab2 arima: %w", err)
		}
		lstm := forecast.NewLSTM(forecast.LSTMConfig{
			Epochs: o.LSTMEpochs, FitWindow: o.FitWindow, Seed: o.Seed,
		})
		if _, err := centroidRMSE(series[0], lstm, o, 1); err != nil {
			return nil, fmt.Errorf("exp: tab2 lstm: %w", err)
		}
		tab.AddRow(p.Name, itoa(len(series[0])),
			f2(arima.FitDuration().Seconds()), f2(lstm.FitDuration().Seconds()))
	}
	return tab, nil
}

// Fig10 combines the clustering methods with sample-and-hold temporal
// forecasting and per-node offsets: RMSE vs h for the proposed dynamic
// clustering, the minimum-distance baseline, and offline static clustering,
// against the standard-deviation bound. All three columns run the same
// pipeline (core.System under sim.Run) and differ only in the clusterer of
// each per-resource tracker.
func Fig10(o Options) (*Table, error) {
	o = o.withDefaults()
	tab := &Table{
		Title: "Fig. 10 — Time-averaged RMSE vs h per clustering method (S&H forecaster)",
		Header: []string{"dataset", "resource", "h", "proposed", "min-distance",
			"static (offline)", "StdDev"},
	}
	simCfg := sim.Config{Horizons: paperHorizons, ForecastEvery: o.ForecastEvery}
	presets, datasets, err := o.clusterDatasets("fig10")
	if err != nil {
		return nil, err
	}
	// One run per (preset, column); the column picks each tracker's
	// clusterer, and a baseline seeds every resource's RNG alike.
	const methods = 3
	sh := func() forecast.Model { return forecast.NewSampleAndHold() }
	results, err := parallel.Map(len(presets)*methods, func(idx int) (*sim.Result, error) {
		ds, mi := datasets[idx/methods], idx%methods
		var clusterer core.ClustererFactory // nil: the proposed tracker
		switch mi {
		case 1:
			clusterer = func(int) (core.Clusterer, error) {
				return cluster.NewMinimumDistance(3, rand.New(rand.NewPCG(o.Seed, 61)))
			}
		case 2:
			clusterer = func(r int) (core.Clusterer, error) {
				return cluster.NewStatic(nodeSeries(ds, r), 3, rand.New(rand.NewPCG(o.Seed, 67)))
			}
		}
		res, err := o.runPipeline(ds, 3, sh, clusterer, simCfg)
		if err != nil {
			return nil, fmt.Errorf("exp: fig10 %s %s: %w", presets[idx/methods].Name, tab.Header[3+mi], err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	for pi, p := range presets {
		ds := datasets[pi]
		prop, md, st := results[pi*methods], results[pi*methods+1], results[pi*methods+2]
		for r := 0; r < ds.NumResources(); r++ {
			std := datasetStdDev(ds, r)
			for _, h := range paperHorizons {
				tab.AddRow(p.Name, resourceLabel(ds, r), itoa(h),
					f4(prop.RMSEAt(r, h)), f4(md.RMSEAt(r, h)), f4(st.RMSEAt(r, h)), f4(std))
			}
		}
	}
	return tab, nil
}

// Table3 sweeps M and M′ on the Google dataset (CPU) at h ∈ {1,5,10} with
// the sample-and-hold forecaster.
func Table3(o Options) (*Table, error) {
	o = o.withDefaults()
	ds, err := o.dataset(trace.GoogleLike())
	if err != nil {
		return nil, fmt.Errorf("exp: tab3: %w", err)
	}
	cpu, err := singleResource(ds, 0)
	if err != nil {
		return nil, err
	}
	values := []int{1, 5, 12, 100}
	horizons := []int{1, 5, 10}
	tab := &Table{
		Title:  "Table III — RMSE for M × M′ (Google CPU, sample-and-hold)",
		Header: []string{"h", "M", "M'=1", "M'=5", "M'=12", "M'=100"},
	}
	// The M × M′ grid cells are independent full-pipeline runs sharing only
	// the read-only dataset; fan them out and emit rows in grid order after.
	grid, err := parallel.Map(len(values)*len(values), func(idx int) (*sim.Result, error) {
		m, mp := values[idx/len(values)], values[idx%len(values)]
		sys, err := core.NewSystem(core.Config{
			Nodes: cpu.Nodes(), Resources: 1, K: 3,
			M: m, MPrime: mp,
			InitialCollection: o.Warmup, RetrainEvery: retrainEvery,
			Seed: o.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("exp: tab3 M=%d M'=%d: %w", m, mp, err)
		}
		res, err := sim.Run(sys, cpu, sim.Config{Horizons: horizons, ForecastEvery: o.ForecastEvery})
		if err != nil {
			return nil, fmt.Errorf("exp: tab3 M=%d M'=%d: %w", m, mp, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	for _, h := range horizons {
		for mi, m := range values {
			row := []string{itoa(h), itoa(m)}
			for mpi := range values {
				row = append(row, f4(grid[mi*len(values)+mpi].RMSEAt(0, h)))
			}
			tab.AddRow(row...)
		}
	}
	return tab, nil
}

// Fig11 compares the paper's similarity measure against the Jaccard index
// on the full pipeline (sample-and-hold forecaster).
func Fig11(o Options) (*Table, error) {
	o = o.withDefaults()
	tab := &Table{
		Title:  "Fig. 11 — RMSE vs h: proposed similarity measure vs Jaccard index",
		Header: []string{"dataset", "resource", "h", "proposed", "jaccard"},
	}
	simCfg := sim.Config{Horizons: paperHorizons, ForecastEvery: o.ForecastEvery}
	presets, datasets, err := o.clusterDatasets("fig11")
	if err != nil {
		return nil, err
	}
	// One independent pipeline run per (preset, similarity measure).
	similarities := []cluster.Similarity{cluster.SimilarityProposed, cluster.SimilarityJaccard}
	results, err := parallel.Map(len(presets)*len(similarities), func(idx int) (*sim.Result, error) {
		pi, si := idx/len(similarities), idx%len(similarities)
		ds := datasets[pi]
		sys, err := core.NewSystem(core.Config{
			Nodes: ds.Nodes(), Resources: ds.NumResources(), K: 3,
			Similarity:        similarities[si],
			InitialCollection: o.Warmup, RetrainEvery: retrainEvery,
			Seed: o.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("exp: fig11 %s %v: %w", presets[pi].Name, similarities[si], err)
		}
		res, err := sim.Run(sys, ds, simCfg)
		if err != nil {
			return nil, fmt.Errorf("exp: fig11 %s %v: %w", presets[pi].Name, similarities[si], err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	for pi, p := range presets {
		ds := datasets[pi]
		prop := results[pi*len(similarities)]
		jac := results[pi*len(similarities)+1]
		for r := 0; r < ds.NumResources(); r++ {
			for _, h := range paperHorizons {
				tab.AddRow(p.Name, resourceLabel(ds, r), itoa(h),
					f4(prop.RMSEAt(r, h)), f4(jac.RMSEAt(r, h)))
			}
		}
	}
	return tab, nil
}
