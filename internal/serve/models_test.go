package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"orcf/internal/core"
	"orcf/internal/forecast"
)

// zooStep returns deterministic one-resource measurements: flat until step 25,
// then ramping, so a sample-and-hold challenger overtakes a historical-mean
// champion partway through the run.
func zooStep(nodes, step int) [][]float64 {
	x := make([][]float64, nodes)
	for i := range x {
		v := 0.3 + 0.05*float64(i%3)
		if step > 25 {
			v += 0.004 * float64(step-25)
		}
		if v > 1 {
			v = 1
		}
		x[i] = []float64{v}
	}
	return x
}

// TestModelsEndpointRegimeChange drives a two-candidate zoo through a regime
// change and checks the champion switch is visible on every read surface:
// /v1/models, the /v1/stats models block, and the orcf_forecast_* series.
func TestModelsEndpointRegimeChange(t *testing.T) {
	t.Parallel()
	const nodes, steps = 9, 80
	cands, err := forecast.Zoo("historical-mean", "sample-and-hold")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(core.Config{
		Nodes: nodes, K: 2, InitialCollection: 10, RetrainEvery: 60,
		Zoo:       cands,
		Selection: forecast.SelectionConfig{Window: 6, Streak: 3, Margin: 1e-9},
		Seed:      7, SnapshotHorizon: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < steps; step++ {
		if _, err := sys.Step(zooStep(nodes, step)); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	srv, err := New(Config{Source: sys})
	if err != nil {
		t.Fatal(err)
	}

	var models ModelsResponse
	get(t, srv, "/v1/models", http.StatusOK, &models)
	if models.Mode != "zoo" {
		t.Fatalf("mode %q, want zoo", models.Mode)
	}
	if len(models.Families) != 2 || models.Families[0] != "historical-mean" || models.Families[1] != "sample-and-hold" {
		t.Fatalf("families %v", models.Families)
	}
	if models.Window != 6 || models.Streak != 3 || models.Metric != "mae" {
		t.Fatalf("selection tuning %+v", models)
	}
	if models.Step != steps {
		t.Fatalf("step %d, want %d", models.Step, steps)
	}
	if models.SwitchesTotal == 0 {
		t.Fatal("regime change produced no champion switches")
	}
	if len(models.Trackers) != 1 {
		t.Fatalf("%d trackers, want 1", len(models.Trackers))
	}
	tm := models.Trackers[0]
	if tm.SwitchesTotal != models.SwitchesTotal {
		t.Fatalf("tracker switches %d != total %d", tm.SwitchesTotal, models.SwitchesTotal)
	}
	if len(tm.Cells) != 2 {
		t.Fatalf("%d cells, want 2 (K=2, one resource)", len(tm.Cells))
	}
	sawSwitch := false
	for _, cell := range tm.Cells {
		if len(cell.Candidates) != 2 {
			t.Fatalf("cell (%d,%d): %d candidates", cell.Cluster, cell.Dim, len(cell.Candidates))
		}
		for c, ca := range cell.Candidates {
			if ca.Name != models.Families[c] {
				t.Fatalf("cell (%d,%d) candidate %d named %q", cell.Cluster, cell.Dim, c, ca.Name)
			}
			if ca.Evals == 0 {
				t.Fatalf("cell (%d,%d) candidate %s never evaluated", cell.Cluster, cell.Dim, ca.Name)
			}
		}
		if cell.Switches > 0 {
			sawSwitch = true
			// After the sustained ramp, sample-and-hold (1-step persistence)
			// beats the long-memory historical mean.
			if cell.Champion != "sample-and-hold" {
				t.Fatalf("cell (%d,%d): champion %q after ramp", cell.Cluster, cell.Dim, cell.Champion)
			}
		}
	}
	if !sawSwitch {
		t.Fatal("no cell recorded a switch despite nonzero total")
	}

	var stats StatsResponse
	get(t, srv, "/v1/stats", http.StatusOK, &stats)
	if stats.Models == nil {
		t.Fatal("stats carries no models block for zoo pipeline")
	}
	if stats.Models.ChampionSwitchesTotal != models.SwitchesTotal {
		t.Fatalf("stats switches %d != models %d", stats.Models.ChampionSwitchesTotal, models.SwitchesTotal)
	}
	if stats.Models.EvaluationsTotal == 0 {
		t.Fatal("stats reports zero evaluations")
	}

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"orcf_forecast_candidates 2\n",
		fmt.Sprintf("orcf_forecast_champion_switches_total %d\n", models.SwitchesTotal),
		fmt.Sprintf("orcf_forecast_evaluations_total %d\n", stats.Models.EvaluationsTotal),
		"# TYPE orcf_http_models_seconds histogram",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", strings.TrimSpace(want))
		}
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", body)
	}
}

// TestModelsEndpointSingleFamily checks the single-family read shape — mode
// "single", no roster, zero-valued zoo metrics, no stats models block — for
// a pinned core.Config.Model and for a one-family zoo, which has nothing to
// select and reads the same.
func TestModelsEndpointSingleFamily(t *testing.T) {
	t.Parallel()
	pinned, _ := readySystem(t, 8, 6, 25)
	ses, err := forecast.Zoo("ses")
	if err != nil {
		t.Fatal(err)
	}
	oneFamily, err := core.NewSystem(core.Config{
		Nodes: 9, K: 2, InitialCollection: 10, Zoo: ses, Seed: 7, SnapshotHorizon: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 30; step++ {
		if _, err := oneFamily.Step(zooStep(9, step)); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	for _, tc := range []struct {
		name string
		sys  *core.System
	}{{"model", pinned}, {"one-family zoo", oneFamily}} {
		name := tc.name
		srv, err := New(Config{Source: tc.sys})
		if err != nil {
			t.Fatal(err)
		}
		var models ModelsResponse
		get(t, srv, "/v1/models", http.StatusOK, &models)
		if models.Mode != "single" {
			t.Fatalf("%s: mode %q, want single", name, models.Mode)
		}
		if len(models.Families) != 0 || len(models.Trackers) != 0 || models.SwitchesTotal != 0 {
			t.Fatalf("%s: single-family response carries zoo state: %+v", name, models)
		}
		var stats StatsResponse
		get(t, srv, "/v1/stats", http.StatusOK, &stats)
		if stats.Models != nil {
			t.Fatalf("%s: single-family stats carries models block: %+v", name, stats.Models)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		if !strings.Contains(rec.Body.String(), "orcf_forecast_candidates 0\n") {
			t.Fatalf("%s: single-family scrape should report zero candidates", name)
		}
	}
}

// TestModelsEndpointNotReady pins the 503 contract before the first snapshot.
func TestModelsEndpointNotReady(t *testing.T) {
	t.Parallel()
	srv, err := New(Config{Source: SourceFunc(func() *core.Snapshot { return nil })})
	if err != nil {
		t.Fatal(err)
	}
	get(t, srv, "/v1/models", http.StatusServiceUnavailable, nil)
}
