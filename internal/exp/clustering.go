package exp

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"orcf/internal/cluster"
	"orcf/internal/core"
	"orcf/internal/kmeans"
	"orcf/internal/metrics"
	"orcf/internal/parallel"
	"orcf/internal/trace"
	"orcf/internal/transmit"
)

// collectZ runs the adaptive policy at budget b over the dataset and returns
// the per-step central-store contents zs[t][node][resource].
func collectZ(ds *trace.Dataset, b float64) ([][][]float64, error) {
	n, d := ds.Nodes(), ds.NumResources()
	policies := make([]transmit.Policy, n)
	for i := range policies {
		p, err := transmit.NewAdaptive(transmit.AdaptiveConfig{Budget: b})
		if err != nil {
			return nil, fmt.Errorf("exp: collectZ: %w", err)
		}
		policies[i] = p
	}
	z := make([][]float64, n)
	zs := make([][][]float64, ds.Steps())
	for t := 1; t <= ds.Steps(); t++ {
		row := make([][]float64, n)
		for i := 0; i < n; i++ {
			x := ds.At(t-1, i)
			if policies[i].Decide(t, x, z[i]) {
				z[i] = append([]float64(nil), x...)
			}
			cp := make([]float64, d)
			copy(cp, z[i])
			row[i] = cp
		}
		zs[t-1] = row
	}
	return zs, nil
}

// scalarPoints projects zs[t] to 1-dim points of resource r.
func scalarPoints(row [][]float64, r int) [][]float64 {
	out := make([][]float64, len(row))
	for i, zi := range row {
		out[i] = []float64{zi[r]}
	}
	return out
}

// intermediateRMSE drives one clusterer over resource r of zs — a flat
// column of the stored values per step, every node present — and returns
// the time-averaged intermediate RMSE against the true values.
func intermediateRMSE(c core.Clusterer, zs [][][]float64, ds *trace.Dataset, r int) (float64, error) {
	n := ds.Nodes()
	col := make([]float64, n)
	var acc metrics.Accumulator
	for t := range zs {
		for i, zi := range zs[t] {
			col[i] = zi[r]
		}
		assign, cents, err := c.UpdateFlat(col, n, 1, nil)
		if err != nil {
			return 0, fmt.Errorf("exp: clustering step %d: %w", t, err)
		}
		addIntermediate(&acc, assign, cents, ds, t, r)
	}
	return acc.Value(), nil
}

// proposedTracker is the dynamic §V-B tracker of the intermediate-RMSE
// experiments: K = k, M = 1.
func proposedTracker(k int, seed uint64) (*cluster.Tracker, error) {
	return cluster.NewTracker(cluster.Config{K: k, M: 1}, rand.New(rand.NewPCG(seed, 17)))
}

// nodeSeries returns every node's whole true series of resource r, the
// input of the offline static baseline.
func nodeSeries(ds *trace.Dataset, r int) [][]float64 {
	series := make([][]float64, ds.Nodes())
	for i := range series {
		series[i] = ds.NodeSeries(i, r)
	}
	return series
}

// threeMethods scores the proposed tracker, the minimum-distance baseline
// and the offline static baseline at K = k on every resource of zs, each
// method with its own seeded RNG: perRes[r] = {proposed, min-distance,
// static}. It is the per-cell body of Figs. 6 and 7.
func threeMethods(zs [][][]float64, ds *trace.Dataset, k int, seed uint64) ([][3]float64, error) {
	perRes := make([][3]float64, ds.NumResources())
	for r := range perRes {
		prop, err := proposedTracker(k, seed)
		if err != nil {
			return nil, fmt.Errorf("exp: tracker: %w", err)
		}
		md, err := cluster.NewMinimumDistance(k, rand.New(rand.NewPCG(seed, 29)))
		if err != nil {
			return nil, fmt.Errorf("exp: min-distance: %w", err)
		}
		st, err := cluster.NewStatic(nodeSeries(ds, r), k, rand.New(rand.NewPCG(seed, 31)))
		if err != nil {
			return nil, fmt.Errorf("exp: static: %w", err)
		}
		for mi, c := range []core.Clusterer{prop, md, st} {
			if perRes[r][mi], err = intermediateRMSE(c, zs, ds, r); err != nil {
				return nil, err
			}
		}
	}
	return perRes, nil
}

// addIntermediate accumulates one step of intermediate squared error
// (centroid of assigned cluster vs TRUE value), over scalar centroids.
func addIntermediate(acc *metrics.Accumulator, assign []int, cents []float64, ds *trace.Dataset, t, r int) {
	var sq float64
	n := ds.Nodes()
	for i := 0; i < n; i++ {
		diff := cents[assign[i]] - ds.At(t, i)[r]
		sq += diff * diff
	}
	acc.AddSquared(sq / float64(n))
}

// Fig5 varies the temporal clustering dimension (window length): clustering
// on concatenated windows of w measurements, intermediate RMSE vs the truth.
// The paper finds w=1 optimal.
func Fig5(o Options) (*Table, error) {
	o = o.withDefaults()
	windows := []int{1, 5, 10, 20, 30}
	tab := &Table{
		Title:  "Fig. 5 — Intermediate RMSE vs temporal clustering dimension (B=0.3, K=3)",
		Header: []string{"dataset", "resource", "window", "intermediate RMSE"},
	}
	presets := clusterPresets()
	type fig5Dataset struct {
		ds *trace.Dataset
		zs [][][]float64
	}
	data := make([]fig5Dataset, len(presets))
	for pi, p := range presets {
		ds, err := o.dataset(p)
		if err != nil {
			return nil, fmt.Errorf("exp: fig5 %s: %w", p.Name, err)
		}
		zs, err := collectZ(ds, 0.3)
		if err != nil {
			return nil, err
		}
		data[pi] = fig5Dataset{ds: ds, zs: zs}
	}
	// Every (preset, resource, window) sweep cell is an independent
	// clustering run over the shared read-only zs with its own seeded RNG.
	type fig5Spec struct{ pi, r, w int }
	var specs []fig5Spec
	for pi := range data {
		for r := 0; r < data[pi].ds.NumResources(); r++ {
			for _, w := range windows {
				specs = append(specs, fig5Spec{pi, r, w})
			}
		}
	}
	vals, err := parallel.Map(len(specs), func(i int) (float64, error) {
		sp := specs[i]
		d := &data[sp.pi]
		return windowedIntermediate(d.zs, d.ds, sp.r, sp.w, 3, o.Seed)
	})
	if err != nil {
		return nil, err
	}
	for i, sp := range specs {
		tab.AddRow(presets[sp.pi].Name, resourceLabel(data[sp.pi].ds, sp.r), itoa(sp.w), f4(vals[i]))
	}
	return tab, nil
}

// windowedIntermediate clusters on w-step window features each step.
func windowedIntermediate(zs [][][]float64, ds *trace.Dataset, r, w, k int, seed uint64) (float64, error) {
	buf, err := cluster.NewWindowBuffer(w)
	if err != nil {
		return 0, fmt.Errorf("exp: window buffer: %w", err)
	}
	rng := rand.New(rand.NewPCG(seed, uint64(w)*97+uint64(r)))
	var acc metrics.Accumulator
	for t := range zs {
		pts := scalarPoints(zs[t], r)
		buf.Push(pts)
		if !buf.Ready() {
			continue
		}
		res, err := kmeans.Run(buf.Features(), kmeans.Config{K: k}, rng)
		if err != nil {
			return 0, fmt.Errorf("exp: windowed kmeans: %w", err)
		}
		// Centroid for the error metric is the mean of *current* values of
		// the cluster members (the window features only drive grouping).
		cents := cluster.CentroidsFor(res.Assignments, len(res.Centroids), pts)
		addIntermediate(&acc, res.Assignments, slices.Concat(cents...), ds, t, r)
	}
	return acc.Value(), nil
}

// Table1 compares independent scalar clustering against joint full-vector
// clustering (intermediate RMSE per resource; scalar should win every row).
func Table1(o Options) (*Table, error) {
	o = o.withDefaults()
	tab := &Table{
		Title:  "Table I — Intermediate RMSE: independent scalars vs full vectors (B=0.3, K=3)",
		Header: []string{"resource & dataset", "Scalar", "Full"},
	}
	presets := clusterPresets()
	type tab1Preset struct {
		ds      *trace.Dataset
		scalarR []float64
		fullR   []float64
	}
	// The three presets are independent (collection + scalar trackers +
	// joint tracker each); run them concurrently, emit rows in order after.
	results, err := parallel.Map(len(presets), func(pi int) (tab1Preset, error) {
		ds, err := o.dataset(presets[pi])
		if err != nil {
			return tab1Preset{}, fmt.Errorf("exp: tab1 %s: %w", presets[pi].Name, err)
		}
		zs, err := collectZ(ds, 0.3)
		if err != nil {
			return tab1Preset{}, err
		}
		scalarR := make([]float64, ds.NumResources())
		for r := range scalarR {
			tr, err := proposedTracker(3, o.Seed)
			if err != nil {
				return tab1Preset{}, fmt.Errorf("exp: tracker: %w", err)
			}
			if scalarR[r], err = intermediateRMSE(tr, zs, ds, r); err != nil {
				return tab1Preset{}, err
			}
		}
		fullR, err := jointIntermediate(zs, ds, 3, 1, o.Seed)
		if err != nil {
			return tab1Preset{}, err
		}
		return tab1Preset{ds: ds, scalarR: scalarR, fullR: fullR}, nil
	})
	if err != nil {
		return nil, err
	}
	for pi, p := range presets {
		res := &results[pi]
		for r := 0; r < res.ds.NumResources(); r++ {
			tab.AddRow(fmt.Sprintf("%s %s", resourceLabel(res.ds, r), p.Name), f4(res.scalarR[r]), f4(res.fullR[r]))
		}
	}
	return tab, nil
}

// jointIntermediate clusters full vectors and reports per-resource error.
func jointIntermediate(zs [][][]float64, ds *trace.Dataset, k, m int, seed uint64) ([]float64, error) {
	tr, err := cluster.NewTracker(cluster.Config{K: k, M: m}, rand.New(rand.NewPCG(seed, 41)))
	if err != nil {
		return nil, fmt.Errorf("exp: joint tracker: %w", err)
	}
	d := ds.NumResources()
	accs := make([]metrics.Accumulator, d)
	n := ds.Nodes()
	for t := range zs {
		step, err := tr.Update(zs[t])
		if err != nil {
			return nil, fmt.Errorf("exp: joint step %d: %w", t, err)
		}
		for r := 0; r < d; r++ {
			var sq float64
			for i := 0; i < n; i++ {
				diff := step.Centroids[step.Assignments[i]][r] - ds.At(t, i)[r]
				sq += diff * diff
			}
			accs[r].AddSquared(sq / float64(n))
		}
	}
	out := make([]float64, d)
	for r := range accs {
		out[r] = accs[r].Value()
	}
	return out, nil
}

// Fig6 sweeps the transmission budget B at fixed K=3 and compares the
// proposed dynamic clustering against the minimum-distance and offline
// static baselines on intermediate RMSE.
func Fig6(o Options) (*Table, error) {
	o = o.withDefaults()
	budgets := []float64{0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 1.0}
	tab := &Table{
		Title:  "Fig. 6 — Intermediate RMSE vs transmission frequency B (K=3)",
		Header: []string{"dataset", "resource", "B", "proposed", "min-distance", "static (offline)"},
	}
	presets := clusterPresets()
	datasets := make([]*trace.Dataset, len(presets))
	for pi, p := range presets {
		ds, err := o.dataset(p)
		if err != nil {
			return nil, fmt.Errorf("exp: fig6 %s: %w", p.Name, err)
		}
		datasets[pi] = ds
	}
	// Each (preset, budget) cell re-collects under its own budget and runs
	// the three clustering methods with their own seeded RNGs — fully
	// independent, so the whole sweep fans out on the worker pool.
	// cells[pi*len(budgets)+bi][resource] = {prop, md, st}.
	cells, err := parallel.Map(len(presets)*len(budgets), func(idx int) ([][3]float64, error) {
		pi, bi := idx/len(budgets), idx%len(budgets)
		ds := datasets[pi]
		zs, err := collectZ(ds, budgets[bi])
		if err != nil {
			return nil, err
		}
		return threeMethods(zs, ds, 3, o.Seed)
	})
	if err != nil {
		return nil, err
	}
	for pi, p := range presets {
		ds := datasets[pi]
		for bi, b := range budgets {
			for r := 0; r < ds.NumResources(); r++ {
				v := cells[pi*len(budgets)+bi][r]
				tab.AddRow(p.Name, resourceLabel(ds, r), f2(b), f4(v[0]), f4(v[1]), f4(v[2]))
			}
		}
	}
	return tab, nil
}

// Fig7 sweeps the number of clusters K at fixed B=0.3.
func Fig7(o Options) (*Table, error) {
	o = o.withDefaults()
	tab := &Table{
		Title:  "Fig. 7 — Intermediate RMSE vs number of clusters K (B=0.3)",
		Header: []string{"dataset", "resource", "K", "proposed", "min-distance", "static (offline)"},
	}
	presets := clusterPresets()
	type fig7Spec struct {
		pi, k int
		ds    *trace.Dataset
		zs    [][][]float64
	}
	var specs []fig7Spec
	for pi, p := range presets {
		ds, err := o.dataset(p)
		if err != nil {
			return nil, fmt.Errorf("exp: fig7 %s: %w", p.Name, err)
		}
		ks := []int{1, 2, 3, 5, 10, 20, 40}
		if ds.Nodes() > 40 {
			ks = append(ks, ds.Nodes())
		}
		zs, err := collectZ(ds, 0.3)
		if err != nil {
			return nil, err
		}
		for _, k := range ks {
			if k > ds.Nodes() {
				continue
			}
			specs = append(specs, fig7Spec{pi: pi, k: k, ds: ds, zs: zs})
		}
	}
	// The K sweep cells share only read-only collected data; each runs the
	// three clustering methods with its own seeded RNGs.
	vals, err := parallel.Map(len(specs), func(i int) ([][3]float64, error) {
		sp := specs[i]
		return threeMethods(sp.zs, sp.ds, sp.k, o.Seed)
	})
	if err != nil {
		return nil, err
	}
	for i, sp := range specs {
		for r := 0; r < sp.ds.NumResources(); r++ {
			tab.AddRow(presets[sp.pi].Name, resourceLabel(sp.ds, r), itoa(sp.k),
				f4(vals[i][r][0]), f4(vals[i][r][1]), f4(vals[i][r][2]))
		}
	}
	return tab, nil
}

// datasetStdDev is the standard deviation of resource r over every node and
// step, the StdDev column of Figs. 9 and 10.
func datasetStdDev(ds *trace.Dataset, r int) float64 {
	var sum, sumSq float64
	var n int
	for t := 0; t < ds.Steps(); t++ {
		for i := 0; i < ds.Nodes(); i++ {
			v := ds.At(t, i)[r]
			sum += v
			sumSq += v * v
			n++
		}
	}
	mean := sum / float64(n)
	v := sumSq/float64(n) - mean*mean
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}
