package exp

import (
	"fmt"

	"orcf/internal/core"
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

// adaptive and uniform build every node's policy at budget b.
func adaptive(b float64) core.PolicyFactory {
	return func(int) (transmit.Policy, error) {
		return transmit.NewAdaptive(transmit.AdaptiveConfig{Budget: b})
	}
}

func uniform(b float64) core.PolicyFactory {
	return func(int) (transmit.Policy, error) { return transmit.NewUniform(b) }
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
	presets, datasets, err := o.clusterDatasets("fig3")
	if err != nil {
		return nil, err
	}
	// One K = 1 run per (preset, budget); the runs are independent.
	freqs, err := parallel.Map(len(presets)*len(budgets), func(idx int) (float64, error) {
		res, err := scoreEdge(datasets[idx/len(budgets)], core.Config{K: 1, Policy: adaptive(budgets[idx%len(budgets)])})
		if err != nil {
			return 0, fmt.Errorf("exp: fig3 %s: %w", presets[idx/len(budgets)].Name, err)
		}
		return res.MeanFrequency, nil
	})
	if err != nil {
		return nil, err
	}
	for pi, p := range presets {
		for bi, b := range budgets {
			tab.AddRow(p.Name, f3(b), f3(freqs[pi*len(budgets)+bi]))
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
	// One sweep cell per (preset, resource, budget): two K = 1 runs over a
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
		var out [2]float64
		for side, policy := range []core.PolicyFactory{adaptive(sp.b), uniform(sp.b)} {
			res, err := scoreEdge(sp.mono, core.Config{K: 1, Policy: policy})
			if err != nil {
				return out, fmt.Errorf("exp: fig4 %s: %w", sp.mono.Name, err)
			}
			out[side] = res.PerResource[0].Horizon.At(0)
		}
		return out, nil
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
