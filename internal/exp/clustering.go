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
	"orcf/internal/sim"
	"orcf/internal/trace"
)

// edge builds the pipeline the collection and clustering experiments step:
// a core.System over ds's fleet and resources with cfg's K, policy and
// clusterers (nil: the adaptive policy at B = 0.3 and core's tracker).
func edge(ds *trace.Dataset, cfg core.Config) (*core.System, error) {
	cfg.Nodes, cfg.Resources = ds.Nodes(), ds.NumResources()
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, fmt.Errorf("exp: %w", err)
	}
	return sys, nil
}

// scoreEdge runs edge(ds, cfg) over the whole dataset under sim.Run, which
// scores every step: the realized frequency, the h = 0 error and the
// intermediate RMSE per resource.
func scoreEdge(ds *trace.Dataset, cfg core.Config) (*sim.Result, error) {
	sys, err := edge(ds, cfg)
	if err != nil {
		return nil, err
	}
	return sim.Run(sys, ds, sim.Config{ScoreIntermediate: true})
}

// tracker builds the dynamic §V-B tracker of the clustering experiments,
// K = k and M = 1, for every tracker of a System, each seeded PCG(seed, stream).
func tracker(k int, seed, stream uint64) core.ClustererFactory {
	return func(int) (core.Clusterer, error) {
		return cluster.NewTracker(cluster.Config{K: k, M: 1}, rand.New(rand.NewPCG(seed, stream)))
	}
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

// threeMethods are the clusterings Figs. 6 and 7 compare at K = k, in column
// order: the proposed tracker, the minimum-distance baseline and the offline
// static baseline, each with its own seeded RNG, tracker index = resource.
func threeMethods(ds *trace.Dataset, k int, seed uint64) [3]core.ClustererFactory {
	return [3]core.ClustererFactory{
		tracker(k, seed, 17),
		func(int) (core.Clusterer, error) {
			return cluster.NewMinimumDistance(k, rand.New(rand.NewPCG(seed, 29)))
		},
		func(r int) (core.Clusterer, error) {
			return cluster.NewStatic(nodeSeries(ds, r), k, rand.New(rand.NewPCG(seed, 31)))
		},
	}
}

// intermediate returns every resource's intermediate RMSE of one run.
func intermediate(res *sim.Result) []float64 {
	out := make([]float64, len(res.PerResource))
	for r := range out {
		out[r] = res.PerResource[r].Intermediate.Value()
	}
	return out
}

// windowed is Fig. 5's clustering: K-means over each slot's last w points
// concatenated (cluster.WindowBuffer), with centroids the members' means of
// their current points (eq. 1; the window only drives the grouping). Until
// the window fills it draws nothing from its RNG and puts every slot in
// cluster 0. Like the baselines it clusters every slot, so a mask with an
// absent slot is an error.
type windowed struct {
	k   int
	buf *cluster.WindowBuffer
	rng *rand.Rand
}

func newWindowed(w, k int, rng *rand.Rand) (*windowed, error) {
	buf, err := cluster.NewWindowBuffer(w)
	if err != nil {
		return nil, fmt.Errorf("exp: window buffer: %w", err)
	}
	return &windowed{k: k, buf: buf, rng: rng}, nil
}

func (c *windowed) UpdateFlat(data []float64, n, dim int, present []bool) (assign []int, cents []float64, err error) {
	if n < c.k || dim < 1 || len(data) < n*dim {
		return nil, nil, fmt.Errorf("exp: %d points of dim %d in %d values for K=%d: %w", n, dim, len(data), c.k, cluster.ErrBadInput)
	}
	if present != nil && (len(present) != n || slices.Contains(present, false)) {
		return nil, nil, fmt.Errorf("exp: windowed clustering needs all %d slots present: %w", n, cluster.ErrBadInput)
	}
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = data[i*dim : (i+1)*dim]
	}
	c.buf.Push(pts)
	assign = make([]int, n)
	if c.buf.Ready() {
		res, err := kmeans.Run(c.buf.Features(), kmeans.Config{K: c.k}, c.rng)
		if err != nil {
			return nil, nil, fmt.Errorf("exp: windowed kmeans: %w", err)
		}
		assign = res.Assignments
	}
	return assign, slices.Concat(cluster.CentroidsFor(assign, c.k, pts)...), nil
}

// ForgetSlot is a no-op: the experiments' fleets do not churn.
func (c *windowed) ForgetSlot(int) {}

// Fig5 varies the temporal clustering dimension (window length): clustering
// on concatenated windows of w measurements, intermediate RMSE vs the truth
// from step w on. The paper finds w=1 optimal.
func Fig5(o Options) (*Table, error) {
	o = o.withDefaults()
	windows := []int{1, 5, 10, 20, 30}
	tab := &Table{
		Title:  "Fig. 5 — Intermediate RMSE vs temporal clustering dimension (B=0.3, K=3)",
		Header: []string{"dataset", "resource", "window", "intermediate RMSE"},
	}
	presets, datasets, err := o.clusterDatasets("fig5")
	if err != nil {
		return nil, err
	}
	// One run per (preset, window); each resource's tracker is a windowed
	// clustering with its own seeded RNG. vals[pi*len(windows)+wi][r].
	vals, err := parallel.Map(len(presets)*len(windows), func(idx int) ([]float64, error) {
		ds, w := datasets[idx/len(windows)], windows[idx%len(windows)]
		sys, err := edge(ds, core.Config{K: 3, Clusterer: func(r int) (core.Clusterer, error) {
			return newWindowed(w, 3, rand.New(rand.NewPCG(o.Seed, uint64(w)*97+uint64(r))))
		}})
		if err != nil {
			return nil, err
		}
		accs := make([]metrics.Accumulator, ds.NumResources())
		for t := 1; t <= ds.Steps(); t++ {
			x := ds.Data[t-1]
			step, err := sys.Step(x)
			if err != nil {
				return nil, fmt.Errorf("exp: fig5 step %d: %w", t, err)
			}
			if t < w {
				continue
			}
			for r, ps := range step.PerResource {
				var sq float64
				for i := range x {
					diff := ps.Centroids[ps.Assignments[i]][0] - x[i][r]
					sq += diff * diff
				}
				accs[r].AddSquared(sq / float64(len(x)))
			}
		}
		out := make([]float64, len(accs))
		for r := range accs {
			out[r] = accs[r].Value()
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	for pi, p := range presets {
		ds := datasets[pi]
		for r := 0; r < ds.NumResources(); r++ {
			for wi, w := range windows {
				tab.AddRow(p.Name, resourceLabel(ds, r), itoa(w), f4(vals[pi*len(windows)+wi][r]))
			}
		}
	}
	return tab, nil
}

// Table1 compares independent scalar clustering against joint full-vector
// clustering (intermediate RMSE per resource; scalar should win every row).
func Table1(o Options) (*Table, error) {
	o = o.withDefaults()
	tab := &Table{
		Title:  "Table I — Intermediate RMSE: independent scalars vs full vectors (B=0.3, K=3)",
		Header: []string{"resource & dataset", "Scalar", "Full"},
	}
	presets, datasets, err := o.clusterDatasets("tab1")
	if err != nil {
		return nil, err
	}
	// One run per (preset, mode): scalar trackers, then one joint tracker.
	results, err := parallel.Map(len(presets)*2, func(idx int) ([]float64, error) {
		cfg := core.Config{K: 3, Clusterer: tracker(3, o.Seed, 17)}
		if idx%2 == 1 {
			cfg = core.Config{K: 3, Clusterer: tracker(3, o.Seed, 41), JointClustering: true}
		}
		res, err := scoreEdge(datasets[idx/2], cfg)
		if err != nil {
			return nil, fmt.Errorf("exp: tab1 %s: %w", presets[idx/2].Name, err)
		}
		return intermediate(res), nil
	})
	if err != nil {
		return nil, err
	}
	for pi, p := range presets {
		ds := datasets[pi]
		for r := 0; r < ds.NumResources(); r++ {
			tab.AddRow(fmt.Sprintf("%s %s", resourceLabel(ds, r), p.Name), f4(results[2*pi][r]), f4(results[2*pi+1][r]))
		}
	}
	return tab, nil
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
	presets, datasets, err := o.clusterDatasets("fig6")
	if err != nil {
		return nil, err
	}
	// One run per (preset, budget, method): each collects under its own
	// budget and clusters with its own seeded RNGs, so the whole sweep fans
	// out. vals[(pi*len(budgets)+bi)*3+method][resource].
	vals, err := parallel.Map(len(presets)*len(budgets)*3, func(idx int) ([]float64, error) {
		cell, mi := idx/3, idx%3
		ds, b := datasets[cell/len(budgets)], budgets[cell%len(budgets)]
		res, err := scoreEdge(ds, core.Config{K: 3, Policy: adaptive(b), Clusterer: threeMethods(ds, 3, o.Seed)[mi]})
		if err != nil {
			return nil, fmt.Errorf("exp: fig6 %s B=%v %s: %w", presets[cell/len(budgets)].Name, b, tab.Header[3+mi], err)
		}
		return intermediate(res), nil
	})
	if err != nil {
		return nil, err
	}
	for pi, p := range presets {
		ds := datasets[pi]
		for bi, b := range budgets {
			v := vals[(pi*len(budgets)+bi)*3:]
			for r := 0; r < ds.NumResources(); r++ {
				tab.AddRow(p.Name, resourceLabel(ds, r), f2(b), f4(v[0][r]), f4(v[1][r]), f4(v[2][r]))
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
		for _, k := range ks {
			if k > ds.Nodes() {
				continue
			}
			specs = append(specs, fig7Spec{pi: pi, k: k, ds: ds})
		}
	}
	// One run per (K cell, method), each with its own seeded RNGs.
	// vals[spec*3+method][resource].
	vals, err := parallel.Map(len(specs)*3, func(idx int) ([]float64, error) {
		sp, mi := specs[idx/3], idx%3
		res, err := scoreEdge(sp.ds, core.Config{K: sp.k, Clusterer: threeMethods(sp.ds, sp.k, o.Seed)[mi]})
		if err != nil {
			return nil, fmt.Errorf("exp: fig7 %s K=%d %s: %w", presets[sp.pi].Name, sp.k, tab.Header[3+mi], err)
		}
		return intermediate(res), nil
	})
	if err != nil {
		return nil, err
	}
	for i, sp := range specs {
		v := vals[i*3:]
		for r := 0; r < sp.ds.NumResources(); r++ {
			tab.AddRow(presets[sp.pi].Name, resourceLabel(sp.ds, r), itoa(sp.k), f4(v[0][r]), f4(v[1][r]), f4(v[2][r]))
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
