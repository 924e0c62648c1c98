package exp

import (
	"fmt"
	"math"

	"orcf/internal/parallel"
	"orcf/internal/stat"
	"orcf/internal/trace"
	"orcf/internal/transmit"
)

// Fig1 reproduces the motivational CDF of pairwise spatial correlations:
// sensor measurements (temperature/humidity) correlate strongly; machine
// resource utilizations (CPU/memory) do not. Rows are correlation values x,
// columns the empirical CDF F(x) per data type.
func Fig1(o Options) (*Table, error) {
	o = o.withDefaults()
	sensorNodes := min(o.Nodes, 54)
	if o.Full {
		sensorNodes = 0
	}
	sensor, err := trace.SensorLike().Generate(sensorNodes, o.Steps, o.Seed)
	if err != nil {
		return nil, fmt.Errorf("exp: fig1 sensor trace: %w", err)
	}
	google, err := o.dataset(trace.GoogleLike())
	if err != nil {
		return nil, fmt.Errorf("exp: fig1 google trace: %w", err)
	}

	cdfs := make([]*stat.ECDF, 0, 4)
	labels := []string{"Temperature", "Humidity", "CPU", "Memory"}
	for r := 0; r < 2; r++ {
		cdfs = append(cdfs, stat.NewECDF(pairwiseCorrs(sensor, r)))
	}
	for r := 0; r < 2; r++ {
		cdfs = append(cdfs, stat.NewECDF(pairwiseCorrs(google, r)))
	}

	tab := &Table{
		Title:  "Fig. 1 — Empirical CDF of pairwise correlation values",
		Header: append([]string{"x"}, labels...),
	}
	for x := -1.0; x <= 1.0001; x += 0.25 {
		row := []string{f2(x)}
		for _, c := range cdfs {
			row = append(row, f3(c.At(x)))
		}
		tab.AddRow(row...)
	}
	return tab, nil
}

func pairwiseCorrs(d *trace.Dataset, resource int) []float64 {
	series := make([][]float64, d.Nodes())
	for i := range series {
		series[i] = d.NodeSeries(i, resource)
	}
	return stat.PairwiseCorrelations(series)
}

// collectRun drives one transmission policy over a dataset without any
// clustering, returning the realized frequency and the h=0 time-averaged
// RMSE (eq. 4 with the stored-measurement estimate).
func collectRun(ds *trace.Dataset, mkPolicy func() (transmit.Policy, error)) (freq, rmse float64, err error) {
	n := ds.Nodes()
	d := ds.NumResources()
	policies := make([]transmit.Policy, n)
	for i := range policies {
		p, err := mkPolicy()
		if err != nil {
			return 0, 0, fmt.Errorf("exp: policy: %w", err)
		}
		policies[i] = p
	}
	z := make([][]float64, n)
	var meter transmit.Meter
	var sumSq float64
	steps := ds.Steps()
	for t := 1; t <= steps; t++ {
		var stepSq float64
		for i := 0; i < n; i++ {
			x := ds.At(t-1, i)
			if policies[i].Decide(t, x, z[i]) {
				z[i] = append(z[i][:0], x...)
				meter.Observe(true)
			} else {
				meter.Observe(false)
			}
			for r := 0; r < d; r++ {
				diff := z[i][r] - x[r]
				stepSq += diff * diff
			}
		}
		sumSq += stepSq / float64(n*d)
	}
	return meter.Frequency(), math.Sqrt(sumSq / float64(steps)), nil
}

// Fig3 reproduces the requested-vs-actual transmission frequency behaviour
// of the adaptive algorithm on all three datasets.
func Fig3(o Options) (*Table, error) {
	o = o.withDefaults()
	budgets := []float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5}
	tab := &Table{
		Title:  "Fig. 3 — Requested vs actual transmission frequency (adaptive algorithm)",
		Header: []string{"dataset", "requested B", "actual freq"},
	}
	for _, p := range clusterPresets() {
		ds, err := o.dataset(p)
		if err != nil {
			return nil, fmt.Errorf("exp: fig3 %s: %w", p.Name, err)
		}
		for _, b := range budgets {
			b := b
			freq, _, err := collectRun(ds, func() (transmit.Policy, error) {
				return transmit.NewAdaptive(transmit.AdaptiveConfig{Budget: b})
			})
			if err != nil {
				return nil, err
			}
			tab.AddRow(p.Name, f3(b), f3(freq))
		}
	}
	return tab, nil
}

// Fig4 compares the adaptive transmission policy against uniform sampling:
// time-averaged h=0 RMSE per dataset and resource across budgets. The
// adaptive policy should win at every budget, both reaching zero at B=1.
func Fig4(o Options) (*Table, error) {
	o = o.withDefaults()
	budgets := []float64{0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 1.0}
	tab := &Table{
		Title:  "Fig. 4 — RMSE (h=0): adaptive vs uniform sampling",
		Header: []string{"dataset", "resource", "B", "proposed", "uniform"},
	}
	// One sweep cell per (preset, resource, budget): two policy runs over a
	// read-only single-resource projection — independent, so they fan out.
	presets := clusterPresets()
	type fig4Spec struct {
		p    trace.Preset
		ds   *trace.Dataset
		mono *trace.Dataset
		r    int
		b    float64
	}
	var specs []fig4Spec
	for _, p := range presets {
		ds, err := o.dataset(p)
		if err != nil {
			return nil, fmt.Errorf("exp: fig4 %s: %w", p.Name, err)
		}
		for r := 0; r < ds.NumResources(); r++ {
			mono, err := singleResource(ds, r)
			if err != nil {
				return nil, err
			}
			for _, b := range budgets {
				specs = append(specs, fig4Spec{p: p, ds: ds, mono: mono, r: r, b: b})
			}
		}
	}
	vals, err := parallel.Map(len(specs), func(i int) ([2]float64, error) {
		sp := specs[i]
		_, adaptive, err := collectRun(sp.mono, func() (transmit.Policy, error) {
			return transmit.NewAdaptive(transmit.AdaptiveConfig{Budget: sp.b})
		})
		if err != nil {
			return [2]float64{}, err
		}
		_, uniform, err := collectRun(sp.mono, func() (transmit.Policy, error) {
			return transmit.NewUniform(sp.b)
		})
		if err != nil {
			return [2]float64{}, err
		}
		return [2]float64{adaptive, uniform}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, sp := range specs {
		tab.AddRow(sp.p.Name, resourceLabel(sp.ds, sp.r), f2(sp.b), f4(vals[i][0]), f4(vals[i][1]))
	}
	return tab, nil
}

// singleResource projects a dataset onto one resource dimension.
func singleResource(d *trace.Dataset, r int) (*trace.Dataset, error) {
	if r < 0 || r >= d.NumResources() {
		return nil, fmt.Errorf("exp: resource %d of %d: %w", r, d.NumResources(), trace.ErrBadConfig)
	}
	data := make([][][]float64, d.Steps())
	for t := range data {
		row := make([][]float64, d.Nodes())
		for i := range row {
			row[i] = []float64{d.Data[t][i][r]}
		}
		data[t] = row
	}
	return &trace.Dataset{
		Name:      d.Name + "-" + d.Resources[r],
		Resources: []string{d.Resources[r]},
		Data:      data,
	}, nil
}
