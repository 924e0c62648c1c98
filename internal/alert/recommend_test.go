package alert

import (
	"errors"
	"math"
	"testing"

	"orcf/internal/core"
	"orcf/internal/forecast"
)

func TestRecommendLifecycle(t *testing.T) {
	t.Parallel()
	sys := newTestSystem(t, 6, nil)

	// Before initial training there is nothing to recommend from.
	stepValue(t, sys, 0.5)
	if _, err := Recommend(sys.Snapshot(), 1); !errors.Is(err, core.ErrNotReady) {
		t.Fatalf("pre-training err = %v, want ErrNotReady", err)
	}

	run := func(v float64) []Recommendation {
		for i := 0; i < 10; i++ {
			stepValue(t, sys, v)
		}
		recs, err := Recommend(sys.Snapshot(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != sys.Clusters() {
			t.Fatalf("%d recommendations for %d clusters", len(recs), sys.Clusters())
		}
		return recs
	}

	// Forecast inside the [0.3, 0.7] band: every populated cluster holds.
	for _, rec := range run(0.5) {
		if rec.Action != ActionHold || rec.Delta != 0 {
			t.Fatalf("mid-band cluster got %+v, want hold", rec)
		}
	}

	// Forecast above the band: populated clusters scale up, conserving
	// demand (nodes × forecast ≈ (nodes + delta) × band midpoint).
	sawUp := false
	for _, rec := range run(0.9) {
		if rec.Nodes == 0 {
			continue
		}
		if rec.Action != ActionScaleUp || rec.Delta < 1 {
			t.Fatalf("hot cluster got %+v, want scale-up", rec)
		}
		after := float64(rec.Nodes) * rec.Forecast / float64(rec.Nodes+rec.Delta)
		if after > 0.7 {
			t.Fatalf("delta %d leaves projected utilization %v above the band", rec.Delta, after)
		}
		sawUp = true
	}
	if !sawUp {
		t.Fatal("no populated cluster scaled up at 0.9 utilization")
	}

	// Forecast below the band: multi-node clusters scale down, never to zero.
	sawDown := false
	for _, rec := range run(0.05) {
		if rec.Nodes <= 1 {
			continue
		}
		if rec.Action != ActionScaleDown || rec.Delta >= 0 {
			t.Fatalf("cold cluster got %+v, want scale-down", rec)
		}
		if rec.Nodes+rec.Delta < 1 {
			t.Fatalf("delta %d scales cluster of %d below one node", rec.Delta, rec.Nodes)
		}
		sawDown = true
	}
	if !sawDown {
		t.Fatal("no multi-node cluster scaled down at 0.05 utilization")
	}
}

func TestRecommendRejectsBadHorizon(t *testing.T) {
	t.Parallel()
	sys := newTestSystem(t, 3, nil)
	for i := 0; i < 8; i++ {
		stepValue(t, sys, 0.5)
	}
	snap := sys.Snapshot()
	for _, h := range []int{-1, 0, 99} { // 99: beyond the snapshot horizon
		if _, err := Recommend(snap, h); !errors.Is(err, ErrBadRule) {
			t.Errorf("h=%d: err = %v, want ErrBadRule", h, err)
		}
	}
}

// constModel forecasts v at every horizon, whatever it was fitted on.
type constModel struct{ v float64 }

func (m constModel) Fit([]float64) error { return nil }
func (m constModel) Update(float64)      {}
func (m constModel) Name() string        { return "const" }
func (m constModel) Forecast(h int) ([]float64, error) {
	out := make([]float64, h)
	for i := range out {
		out[i] = m.v
	}
	return out, nil
}

// TestRecommendBand pins the rule at and around the band [TargetLow,
// TargetHigh] = [0.3, 0.7] on one cluster of four nodes whose centroid is
// forecast at a chosen value: the band's edges hold, one ulp outside them
// resizes, a resize conserves nodes × forecast at the midpoint 0.5 and never
// goes below one node, and a non-finite forecast holds and is reported as 0.
func TestRecommendBand(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name     string
		forecast float64
		delta    int
		action   string
	}{
		{"at TargetHigh", 0.7, 0, ActionHold},
		{"above TargetHigh", math.Nextafter(0.7, 1), 2, ActionScaleUp}, // ⌈4·0.7⁺/0.5⌉ = 6 nodes
		{"hot", 0.9, 4, ActionScaleUp},                                 // ⌈4·0.9/0.5⌉ = 8 nodes
		{"at TargetLow", 0.3, 0, ActionHold},
		{"below TargetLow", math.Nextafter(0.3, 0), -1, ActionScaleDown}, // ⌈4·0.3⁻/0.5⌉ = 3 nodes
		{"idle", 0, -3, ActionScaleDown},                                 // never below one node
		{"NaN", math.NaN(), 0, ActionHold},
		{"+Inf", math.Inf(1), 0, ActionHold},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			sys := newTestSystem(t, 4, func(c *core.Config) {
				c.K = 1
				c.Zoo = forecast.Pinned(func() forecast.Model { return constModel{tc.forecast} })
			})
			for range 8 {
				stepValue(t, sys, 0.5)
			}
			recs, err := Recommend(sys.Snapshot(), 1)
			if err != nil {
				t.Fatal(err)
			}
			rec := recs[0]
			if rec.Nodes != 4 || rec.Delta != tc.delta || rec.Action != tc.action {
				t.Fatalf("forecast %v: %+v, want delta %d %s", tc.forecast, rec, tc.delta, tc.action)
			}
			if want := finite(tc.forecast); math.Float64bits(rec.Forecast) != math.Float64bits(want) {
				t.Fatalf("reported forecast %v, want %v", rec.Forecast, want)
			}
		})
	}
}
