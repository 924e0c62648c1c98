package alert

import (
	"fmt"
	"math"

	"orcf/internal/core"
)

// TargetLow and TargetHigh bound the acceptable per-node utilization band
// of Recommend. A cluster whose forecast centroid leaves the band gets a node
// delta sized to return the per-node utilization to the band's midpoint.
const (
	TargetLow  = 0.3
	TargetHigh = 0.7
)

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
// snapshot's horizon-h centroid forecasts of tracker 0, dimension 0 (under
// scalar clustering, the first resource): a cluster forecast to exceed the
// target band [TargetLow, TargetHigh] scales up to bring projected per-node
// utilization back to the band midpoint (total demand nodes×forecast is
// conserved across the resize), one forecast to undershoot scales down the
// same way, never below one node. Empty clusters are reported with a zero
// delta. It fails with core.ErrNotReady before initial training and
// ErrBadRule for a horizon outside [1, snap.MaxHorizon()].
func Recommend(snap *core.Snapshot, h int) ([]Recommendation, error) {
	if h < 1 {
		return nil, fmt.Errorf("alert: recommend horizon %d < 1: %w", h, ErrBadRule)
	}
	if !snap.Ready() {
		return nil, core.ErrNotReady
	}
	if h > snap.MaxHorizon() {
		return nil, fmt.Errorf("alert: recommend horizon %d beyond snapshot horizon %d: %w",
			h, snap.MaxHorizon(), ErrBadRule)
	}
	cents := snap.Centroids(0)
	sizes := snap.ClusterSizes(0)
	const target = (TargetLow + TargetHigh) / 2
	out := make([]Recommendation, snap.Clusters())
	for j := range out {
		fut, _ := snap.CentroidForecastAt(0, j, 0, h-1)
		now := cents[j][0]
		rec := Recommendation{
			Cluster:     j,
			Nodes:       sizes[j],
			Utilization: finite(now),
			Forecast:    finite(fut),
			Action:      ActionHold,
		}
		if sizes[j] > 0 && !math.IsNaN(fut) && !math.IsInf(fut, 0) {
			switch {
			case fut > TargetHigh:
				// Conserve predicted demand: nodes×fut = (nodes+delta)×target.
				need := int(math.Ceil(float64(sizes[j]) * fut / target))
				rec.Delta = max(need-sizes[j], 1)
				rec.Action = ActionScaleUp
			case fut < TargetLow && sizes[j] > 1:
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
