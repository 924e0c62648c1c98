package alert

import (
	"fmt"
	"math"

	"orcf/internal/core"
)

// RecommendConfig parameterizes one autoscaling recommendation pass. Zero
// values select the defaults.
type RecommendConfig struct {
	// Horizon is the forecast look-ahead in steps the recommendation is
	// based on (default 1; capped by the snapshot's horizon).
	Horizon int
	// Tracker selects the cluster tracker to read (default 0; under scalar
	// clustering, the tracker of the resource to provision for).
	Tracker int
	// Dim selects the measurement dimension within the tracker (default 0).
	Dim int
	// TargetLow and TargetHigh bound the acceptable per-node utilization
	// band (defaults 0.3 and 0.7). A cluster whose forecast centroid leaves
	// the band gets a node delta sized to return the per-node utilization
	// to the band's midpoint.
	TargetLow, TargetHigh float64
}

// WithDefaults returns the configuration with unset fields filled in
// (horizon 1, target band [0.3, 0.7]) — the effective config Recommend runs.
func (c RecommendConfig) WithDefaults() RecommendConfig {
	if c.Horizon == 0 {
		c.Horizon = 1
	}
	if c.TargetLow == 0 && c.TargetHigh == 0 {
		c.TargetLow, c.TargetHigh = 0.3, 0.7
	}
	return c
}

// validate rejects malformed configurations.
func (c RecommendConfig) validate() error {
	if c.Horizon < 1 || c.Tracker < 0 || c.Dim < 0 {
		return fmt.Errorf("alert: recommend horizon/tracker/dim out of range: %w", ErrBadRule)
	}
	if !(c.TargetLow > 0) || !(c.TargetHigh > c.TargetLow) || c.TargetHigh >= 1.5 {
		return fmt.Errorf("alert: recommend target band [%v, %v): %w",
			c.TargetLow, c.TargetHigh, ErrBadRule)
	}
	return nil
}

// Recommendation proposes one cluster's node delta from its forecast
// centroid utilization — the data-driven allocation shape of Pace et al.:
// provision each cluster to its predicted demand rather than its current
// load. All float fields are finite.
type Recommendation struct {
	// Cluster is the cluster index under the tracker.
	Cluster int `json:"cluster"`
	// Nodes is the cluster's current live membership.
	Nodes int `json:"nodes"`
	// Utilization is the cluster's current centroid value in the read
	// dimension.
	Utilization float64 `json:"utilization"`
	// Forecast is the centroid forecast at the configured horizon.
	Forecast float64 `json:"forecast"`
	// Delta is the proposed node count change: positive to scale up,
	// negative to scale down, zero to hold.
	Delta int `json:"delta"`
	// Action summarizes the proposal: "scale-up", "scale-down", or "hold".
	Action string `json:"action"`
}

// The Recommendation.Action values.
const (
	// ActionScaleUp proposes adding nodes.
	ActionScaleUp = "scale-up"
	// ActionScaleDown proposes removing nodes.
	ActionScaleDown = "scale-down"
	// ActionHold proposes no change.
	ActionHold = "hold"
)

// Recommend proposes per-cluster scale-up/scale-down node deltas from the
// snapshot's horizon-h centroid forecasts: a cluster forecast to exceed the
// target band scales up to bring projected per-node utilization back to the
// band midpoint (total demand nodes×forecast is conserved across the
// resize), one forecast to undershoot scales down the same way, never below
// one node. Empty clusters are reported with a zero delta. It fails with
// core.ErrNotReady before initial training and ErrBadRule on a malformed
// config or a horizon/tracker the snapshot cannot serve.
func Recommend(snap *core.Snapshot, cfg RecommendConfig) ([]Recommendation, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if !snap.Ready() {
		return nil, core.ErrNotReady
	}
	if cfg.Tracker >= snap.Trackers() || cfg.Horizon > snap.MaxHorizon() {
		return nil, fmt.Errorf("alert: recommend tracker %d / horizon %d beyond snapshot (%d trackers, horizon %d): %w",
			cfg.Tracker, cfg.Horizon, snap.Trackers(), snap.MaxHorizon(), ErrBadRule)
	}
	cents := snap.Centroids(cfg.Tracker)
	sizes := snap.ClusterSizes(cfg.Tracker)
	target := (cfg.TargetLow + cfg.TargetHigh) / 2
	out := make([]Recommendation, snap.Clusters())
	for j := range out {
		fut, ok := snap.CentroidForecastAt(cfg.Tracker, j, cfg.Dim, cfg.Horizon-1)
		if !ok {
			return nil, fmt.Errorf("alert: recommend dim %d beyond tracker dims %d: %w",
				cfg.Dim, len(cents[j]), ErrBadRule)
		}
		now := cents[j][cfg.Dim]
		rec := Recommendation{
			Cluster:     j,
			Nodes:       sizes[j],
			Utilization: finite(now),
			Forecast:    finite(fut),
			Action:      ActionHold,
		}
		if sizes[j] > 0 && !math.IsNaN(fut) && !math.IsInf(fut, 0) {
			switch {
			case fut > cfg.TargetHigh:
				// Conserve predicted demand: nodes×fut = (nodes+delta)×target.
				need := int(math.Ceil(float64(sizes[j]) * fut / target))
				rec.Delta = max(need-sizes[j], 1)
				rec.Action = ActionScaleUp
			case fut < cfg.TargetLow && sizes[j] > 1:
				need := int(math.Ceil(float64(sizes[j]) * fut / target))
				rec.Delta = max(need, 1) - sizes[j]
				if rec.Delta < 0 {
					rec.Action = ActionScaleDown
				} else {
					rec.Delta = 0
				}
			}
		}
		out[j] = rec
	}
	return out, nil
}

// finite fences NaN/±Inf to 0 for JSON-safe reporting.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
