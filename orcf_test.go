package orcf

import (
	"errors"
	"math"
	"testing"

	"orcf/internal/alert"
	"orcf/internal/core"
)

func TestNewDefaults(t *testing.T) {
	t.Parallel()
	sys, err := New(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Ready() {
		t.Fatal("fresh system should not be ready")
	}
	if sys.Steps() != 0 {
		t.Fatal("fresh system has steps")
	}
}

func TestOptionValidation(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name string
		opt  Option
	}{
		{"bad K", WithClusters(0)},
		{"bad AR", WithAR(0)},
		{"bad M", WithSimilarityLookback(0)},
		{"bad MPrime", WithMembershipLookback(-1)},
		{"nil policy", WithPolicyFactory(nil)},
		{"nil builder", WithModelBuilder(nil)},
		{"bad schedule", WithTrainingSchedule(0, 5)},
		{"bad fit window", WithFitWindow(-1)},
		{"unknown zoo family", WithModelZoo("ses", "no-such-model")},
		{"empty zoo", WithModelZoo()},
		{"bad selection metric", WithSelection(SelectionConfig{Metric: "mape"})},
		{"negative selection margin", WithSelection(SelectionConfig{Margin: -1})},
		{"bad SES alpha", WithSES(2)},
		{"bad Holt alpha", WithHolt(2, 0, 0)},
		{"bad Holt-Winters period", WithHoltWinters(1)},
		{"negative budget", WithBudget(-0.1)},
		{"budget above 1", WithBudget(1.5)},
		{"NaN budget", WithBudget(math.NaN())},
		{"NaN uniform budget", WithUniformSampling(math.NaN())},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			// An empty fleet builds no policy and fits no model, so the
			// option itself must be what fails.
			for _, nodes := range []int{10, 0} {
				if _, err := New(nodes, 1, tt.opt); !errors.Is(err, ErrBadOption) {
					t.Fatalf("New(%d, …): want ErrBadOption, got %v", nodes, err)
				}
			}
		})
	}
}

func TestEndToEndPublicAPI(t *testing.T) {
	t.Parallel()
	ds, err := GenerateTrace(GeneratorConfig{
		Name: "api", Nodes: 20, Steps: 300, Profiles: 3, Seed: 1,
		DiurnalPeriod: 96,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(20, 2,
		WithBudget(0.3),
		WithClusters(3),
		WithSampleAndHold(),
		WithTrainingSchedule(60, 100),
		WithMembershipLookback(5),
		WithSeed(7),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Evaluate(ds, EvalConfig{
		Horizons:          []int{1, 5},
		ForecastEvery:     4,
		ScoreIntermediate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 300 {
		t.Fatalf("steps = %d", res.Steps)
	}
	if math.Abs(res.MeanFrequency-0.3) > 0.05 {
		t.Fatalf("frequency %v, want ≈ 0.3", res.MeanFrequency)
	}
	for r := range res.PerResource {
		if v := res.RMSEAt(r, 1); !(v > 0 && v < 0.5) {
			t.Fatalf("resource %d h=1 RMSE %v implausible", r, v)
		}
	}
}

func TestPresetAccessors(t *testing.T) {
	t.Parallel()
	for _, p := range []TracePreset{AlibabaLike(), BitbrainsLike(), GoogleLike(), SensorLike()} {
		ds, err := p.Generate(5, 10, 1)
		if err != nil {
			t.Fatal(err)
		}
		if ds.Nodes() != 5 || ds.Steps() != 10 {
			t.Fatalf("%s: %d×%d", p.Name, ds.Nodes(), ds.Steps())
		}
	}
}

func TestGridAccessors(t *testing.T) {
	t.Parallel()
	g := DefaultARIMAGrid()
	if g.MaxP < 1 {
		t.Fatal("default grid empty")
	}
	pg := PaperARIMAGrid(288)
	if pg.MaxP != 5 || pg.MaxD != 2 || pg.MaxQ != 5 || pg.Season != 288 {
		t.Fatalf("paper grid %+v", pg)
	}
}

func TestForecastViaPublicAPI(t *testing.T) {
	t.Parallel()
	sys, err := New(6, 1,
		WithAlwaysTransmit(),
		WithClusters(2),
		WithTrainingSchedule(10, 50),
		WithSeed(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		x := make([][]float64, 6)
		for n := range x {
			v := 0.2
			if n >= 3 {
				v = 0.8
			}
			x[n] = []float64{v}
		}
		if _, err := sys.Step(x); err != nil {
			t.Fatal(err)
		}
	}
	if !sys.Ready() {
		t.Fatal("system should be ready")
	}
	f, err := sys.Forecast(3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f[2][0][0]-0.2) > 0.01 || math.Abs(f[2][5][0]-0.8) > 0.01 {
		t.Fatalf("forecasts %v / %v", f[2][0][0], f[2][5][0])
	}
	if sys.MeanFrequency() != 1 {
		t.Fatalf("frequency %v", sys.MeanFrequency())
	}
	if len(sys.CentroidSeries(0, 0, 0)) != 12 {
		t.Fatal("centroid series length wrong")
	}
	if len(sys.Stored()) != 6 {
		t.Fatal("stored length wrong")
	}
	if sys.Frequency(0) != 1 {
		t.Fatal("node frequency wrong")
	}
}

func TestModelZooPublicAPI(t *testing.T) {
	t.Parallel()
	fams := ModelFamilies()
	if len(fams) < 10 {
		t.Fatalf("only %d registered families: %v", len(fams), fams)
	}
	sys, err := New(6, 1,
		WithAlwaysTransmit(),
		WithClusters(2),
		WithModelZoo("historical-mean", "sample-and-hold"),
		WithSelection(SelectionConfig{Window: 6, Streak: 2}),
		WithTrainingSchedule(8, 100),
		WithSeed(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	// Flat then ramping signal: sample-and-hold should dethrone the
	// historical mean once the ramp sustains.
	for i := 0; i < 70; i++ {
		x := make([][]float64, 6)
		for n := range x {
			v := 0.2 + 0.05*float64(n%2)
			if i > 20 {
				v += 0.005 * float64(i-20)
			}
			x[n] = []float64{math.Min(1, v)}
		}
		if _, err := sys.Step(x); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.Forecast(5); err != nil {
		t.Fatal(err)
	}
	info := sys.ModelSelection(0)
	if info == nil {
		t.Fatal("zoo system reports no selection state")
	}
	if info.SwitchTotal == 0 {
		t.Fatal("regime change never switched a champion")
	}
	for _, row := range info.Cells {
		for _, cell := range row {
			if cell.Switches > 0 && cell.Champion != "sample-and-hold" {
				t.Fatalf("champion %q after sustained ramp", cell.Champion)
			}
		}
	}
}

func TestSmoothingOptions(t *testing.T) {
	t.Parallel()
	// Invalid parameters surface at option time, not at first fit.
	if _, err := New(4, 1, WithSES(2)); err == nil {
		t.Fatal("invalid SES alpha should fail")
	}
	if _, err := New(4, 1, WithHolt(2, 0, 0)); err == nil {
		t.Fatal("invalid Holt alpha should fail")
	}
	if _, err := New(4, 1, WithHoltWinters(1)); err == nil {
		t.Fatal("invalid Holt-Winters period should fail")
	}
	// Valid smoothing models run end to end.
	sys, err := New(6, 1,
		WithAlwaysTransmit(),
		WithClusters(2),
		WithHolt(0, 0, 0),
		WithTrainingSchedule(10, 50),
		WithSeed(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		x := make([][]float64, 6)
		for n := range x {
			v := 0.2 + 0.005*float64(i)
			if n >= 3 {
				v = 0.8 - 0.005*float64(i)
			}
			x[n] = []float64{v}
		}
		if _, err := sys.Step(x); err != nil {
			t.Fatal(err)
		}
	}
	f, err := sys.Forecast(5)
	if err != nil {
		t.Fatal(err)
	}
	// Holt extrapolates the opposing trends.
	if !(f[4][0][0] > f[0][0][0]) || !(f[4][5][0] < f[0][5][0]) {
		t.Fatalf("trend extrapolation wrong: %v vs %v", f[0][0][0], f[4][0][0])
	}
}

// TestAlertPlanePublicAPI drives the facade's alert plane: a threshold rule
// at 0 fires on every cluster of a ready fleet and reaches the sink,
// Alerts and AlertStats report the engine (and nothing without rules),
// Recommend answers one row per cluster, and the option combinations New
// refuses fail with ErrBadOption.
func TestAlertPlanePublicAPI(t *testing.T) {
	t.Parallel()
	rules, err := ParseAlertRules([]byte(`{"rules": [{"name": "busy", "kind": "threshold", "scope": "cluster", "cluster": -1, "above": true, "threshold": 0}]}`))
	if err != nil {
		t.Fatal(err)
	}
	sink := new(alert.CollectorSink)
	build := func(opts ...Option) (*System, error) {
		base := []Option{WithAlwaysTransmit(), WithClusters(2), WithTrainingSchedule(10, 50), WithSeed(3)}
		return New(6, 1, append(base, opts...)...)
	}
	sys, err := build(WithSnapshotHorizon(2), WithAlertRules(rules), WithAlertSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Recommend(1); !errors.Is(err, core.ErrNotReady) {
		t.Fatalf("Recommend before any step: %v, want ErrNotReady", err)
	}
	for range 12 {
		x := make([][]float64, 6)
		for n := range x {
			x[n] = []float64{0.2 + 0.6*float64(n/3)}
		}
		for _, s := range []*System{sys, plain} {
			if _, err := s.Step(x); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !sys.Ready() {
		t.Fatal("system should be ready")
	}

	events := sink.Events()
	if len(events) != 2 {
		t.Fatalf("sink got %d events, want one fire per cluster: %+v", len(events), events)
	}
	for _, ev := range events {
		if ev.Rule != "busy" || ev.State != "firing" {
			t.Fatalf("event %+v, want rule busy firing", ev)
		}
	}
	if firing := sys.Alerts(); len(firing) != 2 {
		t.Fatalf("%d alerts firing, want 2: %+v", len(firing), firing)
	}
	stats, ok := sys.AlertStats()
	if !ok || stats.Rules != 1 || stats.Firing != 2 || stats.Fires != 2 || stats.Sinks.Delivered != 2 {
		t.Fatalf("AlertStats = %+v, %v", stats, ok)
	}
	if _, ok := plain.AlertStats(); ok || plain.Alerts() != nil {
		t.Fatal("a system without rules reports an alert engine")
	}

	recs, err := sys.Recommend(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("%d recommendations, want one per cluster: %+v", len(recs), recs)
	}
	for j, rec := range recs {
		if rec.Cluster != j || rec.Nodes != 3 {
			t.Fatalf("recommendation %d = %+v, want cluster %d of 3 nodes", j, rec, j)
		}
	}
	if _, err := sys.Recommend(3); !errors.Is(err, alert.ErrBadRule) {
		t.Fatalf("Recommend past the snapshot horizon: %v, want ErrBadRule", err)
	}

	if _, err := build(WithAlertRules(rules)); !errors.Is(err, ErrBadOption) {
		t.Errorf("rules without a snapshot horizon: %v, want ErrBadOption", err)
	}
	if _, err := build(WithSnapshotHorizon(2), WithAlertSink(sink)); !errors.Is(err, ErrBadOption) {
		t.Errorf("sink without rules: %v, want ErrBadOption", err)
	}
}
