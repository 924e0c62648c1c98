package exp

import (
	"fmt"

	"orcf/internal/core"
	"orcf/internal/parallel"
	"orcf/internal/sim"
	"orcf/internal/trace"
)

// Ablations quantifies design choices from the eq. 7–12 rows of the
// paper-equation-to-package map in docs/ARCHITECTURE.md by switching them off
// one at a time on the Google-like dataset (sample-and-hold forecaster,
// CPU+memory averaged per horizon):
//
//   - no re-indexing: skip the Hungarian matching of §V-B, so forecasting
//     models train on label-scrambled centroid series;
//   - no α-clamp: use raw offsets z−c in eq. (12);
//   - M′ = 0: membership forecast and offset use the current step only;
//   - uniform sampling: replace the adaptive policy at the same budget.
func Ablations(o Options) (*Table, error) {
	o = o.withDefaults()
	ds, err := o.dataset(trace.GoogleLike())
	if err != nil {
		return nil, fmt.Errorf("exp: ablations: %w", err)
	}
	horizons := []int{1, 5, 25}
	tab := &Table{
		Title:  "Ablations — time-averaged RMSE (Google-like, S&H forecaster, mean of CPU+mem)",
		Header: []string{"variant", "h=1", "h=5", "h=25"},
	}
	variants := []struct {
		name   string
		mutate func(*core.Config)
	}{
		{"full pipeline", func(*core.Config) {}},
		{"no re-indexing (§V-B)", func(c *core.Config) { c.DisableMatching = true }},
		{"no α-clamp (eq. 12)", func(c *core.Config) { c.DisableAlphaClamp = true }},
		{"M′ = 0 (current step only)", func(c *core.Config) { c.MPrime = -1 }},
		{"uniform sampling (§V-A off)", func(c *core.Config) {
			c.Policy = uniform(0.3)
		}},
	}
	// The variants are independent full-pipeline runs over the shared
	// read-only dataset; fan them out, emit rows in declaration order after.
	results, err := parallel.Map(len(variants), func(vi int) (*sim.Result, error) {
		v := variants[vi]
		cfg := core.Config{
			Nodes: ds.Nodes(), Resources: ds.NumResources(), K: 3,
			InitialCollection: o.Warmup, RetrainEvery: retrainEvery,
			Seed: o.Seed,
		}
		v.mutate(&cfg)
		sys, err := core.NewSystem(cfg)
		if err != nil {
			return nil, fmt.Errorf("exp: ablation %q: %w", v.name, err)
		}
		res, err := sim.Run(sys, ds, sim.Config{Horizons: horizons, ForecastEvery: o.ForecastEvery})
		if err != nil {
			return nil, fmt.Errorf("exp: ablation %q: %w", v.name, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	for vi, v := range variants {
		row := []string{v.name}
		for _, h := range horizons {
			mean := 0.0
			for r := 0; r < ds.NumResources(); r++ {
				mean += results[vi].RMSEAt(r, h)
			}
			row = append(row, f4(mean/float64(ds.NumResources())))
		}
		tab.AddRow(row...)
	}
	return tab, nil
}
