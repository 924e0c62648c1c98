package main

import (
	"math/rand/v2"
	"time"

	"orcf/internal/cluster"
	"orcf/internal/core"
	"orcf/internal/forecast"
	"orcf/internal/kmeans"
	"orcf/internal/transmit"
)

// The probes of a traced run time one layer's public functions on data the
// workload produced, off the op clock, so that every workload reports every
// layer its data can reach and a change to a layer shows on its own metric
// whatever its share of an op is.

// zooFamilies is the model zoo of zoo_durable and of the forecast probe.
var zooFamilies = []string{"sample-and-hold", "ses", "holt", "ar", "arima"}

const (
	zooRetrainEvery = 25
	zooFitWindow    = 200
	maxStored       = 24
	probeHorizon    = 12
)

// storedSamples keeps copies of the central store z_t taken during the
// traced run, as the points the cluster and kmeans probes run on.
type storedSamples struct {
	n, d int
	flat [][]float64 // per sample, n·d row-major
}

func (s *storedSamples) add(z [][]float64) {
	if len(s.flat) >= maxStored || len(z) == 0 {
		return
	}
	s.n, s.d = len(z), len(z[0])
	flat := make([]float64, 0, s.n*s.d)
	for _, row := range z {
		if len(row) != s.d {
			return // a slot without a stored measurement: skip the sample
		}
		flat = append(flat, row...)
	}
	s.flat = append(s.flat, flat)
}

// points returns sample k as the point set tracker 0 clusters: the full
// d-dimensional rows under joint clustering, column 0 otherwise.
func (s *storedSamples) points(k int, joint bool) (flat []float64, dim int) {
	if joint {
		return s.flat[k], s.d
	}
	col := make([]float64, s.n)
	for i := range col {
		col[i] = s.flat[k][i*s.d]
	}
	return col, 1
}

// probeCore times the two System calls that no op makes, from check().
func probeCore(sys *core.System, tr *tracer) int {
	failed := 0
	s := tr.begin("core.forecast")
	_, err := sys.Forecast(probeHorizon)
	tr.end(s)
	if err != nil {
		failed++
	}
	s = tr.begin("core.export_state")
	_, err = sys.ExportState()
	tr.end(s)
	if err != nil {
		failed++
	}
	return failed
}

// probeLayers fills in the metrics every workload can measure: the Step
// phases, refit counts, and the transmit, cluster, kmeans and forecast
// probes.
func (p *pipeline) probeLayers(sys *core.System, cfg core.Config, tr *tracer, m map[string]float64) error {
	p.phases.addTo(m)
	warm, full := sys.RefitStats()
	m["core.warm_ratio"] = float64(warm) / float64(max(1, warm+full))
	m["core.refit_full"] = float64(full)
	totals := totalsByName(tr.spans)
	m["core.forecast_ms"] = totals["core.forecast"].meanMs()
	m["core.export_state_ms"] = totals["core.export_state"].meanMs()
	m["trace.generate_ms"] = float64(p.in.genTime) / 1e6

	if err := probeTransmit(p.in, m); err != nil {
		return err
	}
	if err := probeCluster(&p.stored, cfg, m); err != nil {
		return err
	}
	dims := 1
	if cfg.JointClustering {
		dims = cfg.Resources
	}
	series := make([][][]float64, sys.Clusters())
	for j := range series {
		series[j] = make([][]float64, dims)
		for d := range series[j] {
			series[j][d] = sys.CentroidSeries(0, j, d)
		}
	}
	return probeForecast(series, m)
}

// probeTransmit runs the workload's rows through fresh adaptive policies.
func probeTransmit(in *inputs, m map[string]float64) error {
	const steps = 100
	policies := make([]*transmit.Adaptive, in.n)
	stored := make([][]float64, in.n)
	for i := range policies {
		p, err := transmit.NewAdaptive(transmit.AdaptiveConfig{Budget: budget})
		if err != nil {
			return err
		}
		policies[i] = p
	}
	sent := 0
	t0 := time.Now()
	for t := 0; t < steps; t++ {
		for i, p := range policies {
			x := in.row(t, i)
			if p.Decide(t+1, x, stored[i]) {
				stored[i] = x
				sent++
			}
		}
	}
	decisions := float64(steps * in.n)
	m["transmit.decide_ns_per_node"] = float64(time.Since(t0)) / decisions
	m["transmit.sent_ratio"] = float64(sent) / decisions
	return nil
}

// probeCluster replays the recorded store matrices through a fresh tracker
// configured like tracker 0, and through the K-means primitives under it.
func probeCluster(stored *storedSamples, cfg core.Config, m map[string]float64) error {
	if len(stored.flat) == 0 {
		return nil
	}
	k := cfg.K
	tracker, err := cluster.NewTracker(cluster.Config{
		K: k, HistoryDepth: 8, Incremental: cfg.IncrementalRefit,
	}, rand.New(rand.NewPCG(cfg.Seed, 1)))
	if err != nil {
		return err
	}
	runner := kmeans.NewRunner()
	rng := rand.New(rand.NewPCG(cfg.Seed, 2))
	assign := make([]int, stored.n)
	var rows [][]float64
	var update, runflat, assignT time.Duration
	iterations := 0
	for s := range stored.flat {
		pts, dim := stored.points(s, cfg.JointClustering)
		rows = rows[:0]
		for i := 0; i < stored.n; i++ {
			rows = append(rows, pts[i*dim:(i+1)*dim])
		}
		t0 := time.Now()
		if _, err := tracker.UpdateMasked(rows, nil); err != nil {
			return err
		}
		update += time.Since(t0)

		t0 = time.Now()
		if err := runner.RunFlat(pts, stored.n, dim, kmeans.Config{K: k}, rng, assign); err != nil {
			return err
		}
		runflat += time.Since(t0)
		iterations += runner.Iterations()

		cents := make([]float64, 0, k*dim)
		for j := 0; j < runner.NumCentroids(); j++ {
			cents = append(cents, runner.Centroid(j)...)
		}
		t0 = time.Now()
		kmeans.AssignFlat(pts, stored.n, dim, cents, runner.NumCentroids(), assign)
		assignT += time.Since(t0)
	}
	runs := float64(len(stored.flat))
	m["cluster.update_ms"] = float64(update) / runs / 1e6
	m["kmeans.runflat_ms"] = float64(runflat) / runs / 1e6
	m["kmeans.assign_ns_per_point"] = float64(assignT) / runs / float64(stored.n)
	m["kmeans.iterations_per_run"] = float64(iterations) / runs
	return nil
}

// probeForecast feeds the tail of the recorded centroid series
// (series[cluster][dim]) to a fresh zoo ensemble, timing refit rounds apart
// from plain observations, then fits each family alone on one fit window.
func probeForecast(series [][][]float64, m map[string]float64) error {
	const tail = 3*zooFitWindow + 1
	length := len(series[0][0])
	if length < zooFitWindow+zooRetrainEvery {
		return nil // too short a run (smoke scale) to reach a refit
	}
	start := max(0, length-tail)
	zoo, err := forecast.Zoo(zooFamilies...)
	if err != nil {
		return err
	}
	ens, err := forecast.NewEnsemble(forecast.EnsembleConfig{
		Clusters: len(series), Dims: len(series[0]),
		InitialCollection: zooFitWindow, RetrainEvery: zooRetrainEvery,
		FitWindow: zooFitWindow, Candidates: zoo,
	})
	if err != nil {
		return err
	}
	cents := make([][]float64, len(series))
	for j := range cents {
		cents[j] = make([]float64, len(series[j]))
	}
	var observe, refit, fc time.Duration
	observes, refits, forecasts := 0, 0, 0
	for t := start; t < length; t++ {
		for j := range series {
			for d := range series[j] {
				cents[j][d] = series[j][d][t]
			}
		}
		_, before := ens.TrainingTime()
		t0 := time.Now()
		if err := ens.Observe(cents); err != nil {
			return err
		}
		d := time.Since(t0)
		if _, after := ens.TrainingTime(); after > before {
			refit += d
			refits++
		} else {
			observe += d
			observes++
		}
		if ens.Ready() {
			t0 = time.Now()
			if _, err := ens.Forecast(probeHorizon); err != nil {
				return err
			}
			fc += time.Since(t0)
			forecasts++
		}
	}
	m["forecast.observe_us"] = float64(observe) / float64(max(1, observes)) / 1e3
	m["forecast.refit_ms"] = float64(refit) / float64(max(1, refits)) / 1e6
	m["forecast.refits"] = float64(refits)
	m["forecast.forecast_us"] = float64(fc) / float64(max(1, forecasts)) / 1e3
	if sel := ens.Selection(); sel != nil {
		m["forecast.champion_switches"] = float64(sel.SwitchTotal)
	}

	window := series[0][0][length-zooFitWindow:]
	for _, c := range zoo {
		const fits = 5
		t0 := time.Now()
		for i := 0; i < fits; i++ {
			if err := c.Builder().Fit(window); err != nil {
				return err
			}
		}
		m["forecast.fit_ms."+c.Name] = float64(time.Since(t0)) / fits / 1e6
	}
	return nil
}
